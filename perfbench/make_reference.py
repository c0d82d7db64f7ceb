"""Write ``reference/<workload>.json`` from one untraced run of each workload.

    python3 perfbench/make_reference.py [--seed 0] [workload ...]

Run this only on a commit whose outputs are known good: the reference is what
every later benchmark run is checked against.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import checks
from run import CHILD_TIMEOUT_S, THREADS, WORK, spawn
from workloads import HERE, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    WORK.mkdir(exist_ok=True)
    for name in args.workloads:
        rep = spawn(name, args.seed, "run", THREADS, "reference",
                    time.monotonic() + CHILD_TIMEOUT_S)
        if rep["problems"]:
            print(f"{name}: {rep['problems'][0]}", file=sys.stderr)
            return 1
        ref = {"seed": args.seed, "files": checks.summarize(rep["out"], rep["outputs"])}
        shutil.rmtree(rep["out"])
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path} ({len(ref['files'])} files, wall {rep['wall_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
