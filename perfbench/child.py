"""One benchmark repeat in a fresh process.

Imports ``holomimo.cli`` from the checkout's ``src``, resolves the workload's
config with the benchmark seed, and -- unless ``--mode setup`` -- runs the
experiment (traced with ``--mode trace``).  Timestamps use the system-wide
monotonic clock so the parent can subtract its spawn time.  The result is
written as JSON to ``--result``.

    python3 perfbench/child.py --workload eig-cap --seed 1 --mode run \
        --out .perfbench/out --result .perfbench/result.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from workloads import ROOT, WORKLOADS

sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    from holomimo import cli

    cfg, label = cli.load_config(WORKLOADS[args.workload])
    cfg.seed = args.seed
    result = {"t_config": time.monotonic()}
    if args.mode != "setup":
        tracer = None
        if args.mode == "trace":
            import tracing
            tracer = tracing.install()
        cpu0 = time.process_time()
        manifest = cli.run_experiment(cfg, label, args.out)
        result["t_end"] = time.monotonic()
        result["cpu_s"] = time.process_time() - cpu0
        result["outputs"] = manifest["outputs"]
        if tracer is not None:
            result["trace"] = tracer.dump()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
