"""holomimo benchmark: end-to-end and per-layer timings of four workloads.

    python3 perfbench/run.py --workload eig-iso --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each repeat is a fresh holomimo process (``child.py``), run one at a time as a
closed loop with a single client.  BLAS threads are pinned to ``nproc`` in the
child's environment (OpenBLAS's own default).  The workload seed is passed to
the program as its config seed.

``--trace 0`` measures the end-to-end metrics: setup-only spawns, then full
repeats while another one fits in ``--seconds`` (at least one).  Repeats at
one seed must write identical bytes; ``--trace 1`` always compares two.  ``--trace 1`` measures the per-layer metrics: one traced repeat,
one untraced repeat (tracing overhead, hash equality) and one untraced repeat
with one BLAS thread (the single-threaded baseline).

Every repeat's outputs are checked (``checks.py``); a nonzero exit, a missing
file, a failed check or a hash that differs from the other repeats at the same
seed counts as a failed operation.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A report with the
host fingerprint, per-repeat details and raw spans goes to
``.perfbench/report-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import tracing
from workloads import HERE, ROOT, WORKLOADS

WORK = ROOT / ".perfbench"
SETUP_SPAWNS = 2
MIN_REPEATS = 1
CHILD_TIMEOUT_S = 100.0
# A run must end within 180 s; no child is started or kept past this.
RUN_BUDGET_S = 170.0
THREADS = len(os.sched_getaffinity(0))

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Per-layer metrics: (name, unit, source).  A source "span:<name>:<field>"
# reads the span table; every other source is computed in ``_layer_metrics``.
PER_LAYER = [
    ("kernels.phase_kernel.s", "s", "span:kernels.phase_kernel:s"),
    ("kernels.phase_kernel.calls", "count", "span:kernels.phase_kernel:calls"),
    ("kernels.phase_kernel.gflop_computed", "Gflop", "count:kernels.phase_kernel_gflop"),
    ("fourier.variances_uncoupled.s", "s", "span:fourier.variances_uncoupled:s"),
    ("fourier.variances_coupled.s", "s", "span:fourier.variances_coupled:s"),
    ("fourier.fourier_matrix.s", "s", "span:fourier.fourier_matrix:s"),
    ("fourier.evaluator_calls", "count", "count:fourier.evaluator_calls"),
    ("fourier.evaluator_points", "count", "count:fourier.evaluator_points"),
    ("fourier.build_lattice.calls", "count", "span:fourier.build_lattice:calls"),
    ("coupling.coupling_closed_form.s", "s", "span:coupling.coupling_closed_form:s"),
    ("coupling.coupling_general.s", "s", "span:coupling.coupling_general:s"),
    ("coupling.coupling_general.calls", "count", "span:coupling.coupling_general:calls"),
    ("coupling.regularize.s", "s", "span:coupling.regularize:s"),
    ("coupling.spd_inv_sqrt.s", "s", "span:coupling.spd_inv_sqrt:s"),
    ("coupling.spd_inv_sqrt.calls", "count", "span:coupling.spd_inv_sqrt:calls"),
    ("coupling.spd_sqrt.s", "s", "span:coupling.spd_sqrt:s"),
    ("coupling.spd_sqrt.calls", "count", "span:coupling.spd_sqrt:calls"),
    ("channel.exact_correlation.self_s", "s", "span:channel.exact_correlation:self_s"),
    ("channel.coupled_correlation_exact.self_s", "s",
     "span:channel.coupled_correlation_exact:self_s"),
    ("channel.CorrelationMatrix.eigenvalues.s", "s",
     "span:channel.CorrelationMatrix.eigenvalues:s"),
    ("channel.CorrelationMatrix.eigenvalues.calls", "count",
     "span:channel.CorrelationMatrix.eigenvalues:calls"),
    ("channel.eig_complex_calls", "count", "eig_complex_calls"),
    ("channel.exact_model.self_s", "s", "span:channel.exact_model:self_s"),
    ("channel.ChannelModel.realize.s", "s", "span:channel.ChannelModel.realize:s"),
    ("channel.ChannelModel.realize.calls", "count", "span:channel.ChannelModel.realize:calls"),
    ("linalg.eigensolves", "count", "eigensolves"),
    ("linalg.eigensolves_complex", "count", "eigensolves_complex"),
    ("capacity.ergodic_capacity.self_s", "s", "span:capacity.ergodic_capacity:self_s"),
    ("capacity.draws", "count", "draws"),
    ("capacity.draw_ms_p50", "ms", "draw_ms_p50"),
    ("capacity.draw_ms_p98", "ms", "draw_ms_p98"),
    ("capacity.svd_gflop_computed", "Gflop", "svd_gflop"),
    ("cli.run_experiment.s", "s", "span:cli.run_experiment:s"),
    ("cli.self_s", "s", "span:cli.run_experiment:self_s"),
    ("cli.write.s", "s", "span:cli.write:s"),
    ("cli.bytes_written", "B", "bytes_written"),
    ("cli.cpu_s", "s", "cpu_s"),
    ("cli.cpu_util", "ratio", "cpu_util"),
    ("cli.wall_1t_s", "s", "wall_1t_s"),
    ("cli.blas_speedup", "ratio", "blas_speedup"),
    ("trace.overhead_s", "s", "overhead_s"),
    ("trace.coverage", "ratio", "coverage"),
]
EMPTY_SPAN = {"calls": 0, "s": 0.0, "self_s": 0.0}
# Derived per-layer metrics that are meaningless when this target is absent.
DERIVED_NEEDS = {
    "eig_complex_calls": "channel.CorrelationMatrix.eigenvalues",
    "draws": "channel.ChannelModel.realize",
    "draw_ms_p50": "channel.ChannelModel.realize",
    "draw_ms_p98": "channel.ChannelModel.realize",
    "svd_gflop": "channel.ChannelModel.realize",
}


class SetupError(RuntimeError):
    """The program could not be started at all (nothing to measure)."""


# ---------------------------------------------------------------------------
# host fingerprint


def host_fingerprint(threads: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {"git_rev": rev, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads}


# ---------------------------------------------------------------------------
# one child process


def spawn(workload: str, seed: int, mode: str, threads: int, tag: str,
          deadline: float) -> dict:
    """Run one child to completion; returns timings, rusage and its result."""
    out = WORK / f"out-{tag}"
    result_path = WORK / f"result-{tag}.json"
    shutil.rmtree(out, ignore_errors=True)
    result_path.unlink(missing_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--out", str(out), "--result", str(result_path)]
    with open(WORK / f"log-{tag}.txt", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        deadline = min(deadline, t_spawn + CHILD_TIMEOUT_S)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"mode": mode, "threads": threads, "exit": proc.returncode, "out": out,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "problems": []}
    if proc.returncode != 0 or not result_path.is_file():
        tail = (WORK / f"log-{tag}.txt").read_text()[-2000:]
        rep["problems"].append(f"child exited with {proc.returncode}: {tail.strip()}")
        return rep
    result = json.loads(result_path.read_text())
    rep["setup_s"] = result["t_config"] - t_spawn
    if mode != "setup":
        rep["wall_s"] = result["t_end"] - result["t_config"]
        rep["cpu_s"] = result["cpu_s"]
        rep["outputs"] = result["outputs"]
        rep["trace"] = result.get("trace")
    return rep


def verify(workload: str, rep: dict, reference: dict) -> None:
    """Check one repeat's outputs in place, record its hash, free its files."""
    if rep["problems"] or rep["mode"] == "setup":
        return
    out = rep["out"]
    rep["problems"] += checks.check(workload, out, rep["outputs"], reference)
    if not rep["problems"]:
        rep["hash"] = checks.digest(out, rep["outputs"])
        rep["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    shutil.rmtree(out, ignore_errors=True)


def mark_hash_mismatches(reps: list[dict]) -> None:
    """Fail every repeat whose output hash differs from the most common one."""
    hashes = Counter(r["hash"] for r in reps if "hash" in r)
    if not hashes:
        return
    majority = hashes.most_common(1)[0][0]
    for r in reps:
        if "hash" in r and r["hash"] != majority:
            r["problems"].append(f"output hash {r['hash'][:12]} differs from {majority[:12]} "
                                 f"of the other repeats at this seed")


def _median(values: list[float]) -> float:
    if not values:
        raise SetupError("no successful repeat to take a timing from")
    return statistics.median(values)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))]


# ---------------------------------------------------------------------------
# the two kinds of run


def measure_end_to_end(workload: str, seed: int, seconds: float, reference: dict,
                       deadline: float):
    reps = [spawn(workload, seed, "setup", THREADS, f"setup{i}", deadline)
            for i in range(SETUP_SPAWNS)]
    if all(r["problems"] for r in reps):
        raise SetupError(f"cannot start holomimo: {reps[0]['problems'][0]}")
    # Repeat while another repeat (as long as the last one) fits in `seconds`.
    start = time.monotonic()
    runs, last = [], 0.0
    while len(runs) < MIN_REPEATS or (time.monotonic() - start + last <= seconds
                                      and time.monotonic() + last < deadline):
        t0 = time.monotonic()
        rep = spawn(workload, seed, "run", THREADS, f"run{len(runs)}", deadline)
        verify(workload, rep, reference)
        runs.append(rep)
        last = time.monotonic() - t0
    mark_hash_mismatches(runs)
    reps += runs
    ok_runs = [r for r in runs if "wall_s" in r]
    metrics = {
        "wall_s": _median([r["wall_s"] for r in ok_runs]),
        "setup_s": _median([r["setup_s"] for r in reps if "setup_s" in r]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok_runs]),
    }
    return metrics, reps


def measure_layers(workload: str, seed: int, reference: dict, deadline: float):
    traced = spawn(workload, seed, "trace", THREADS, "traced", deadline)
    plain = spawn(workload, seed, "run", THREADS, "plain", deadline)
    single = spawn(workload, seed, "run", 1, "single", deadline)
    reps = [traced, plain, single]
    for rep in reps:
        verify(workload, rep, reference)
    # The traced run must write the same bytes as the untraced one.  The
    # one-thread run may differ in the last bits (BLAS blocking), so it is
    # held to the tolerance checks only.
    mark_hash_mismatches([traced, plain])
    if traced.get("trace") is None or "wall_s" not in plain or "wall_s" not in single:
        raise SetupError("a layer-measurement repeat did not finish: "
                         + "; ".join(p for r in reps for p in r["problems"]))
    return _layer_metrics(traced, plain, single), reps


def _layer_metrics(traced: dict, plain: dict, single: dict) -> dict:
    trace = traced["trace"]
    table = tracing.span_table(trace["spans"])
    absent = {name for module, path, name in tracing.TARGETS + tracing.COUNTED
              if f"{module}.{path}" in trace["absent"]}
    draws = tracing.draw_times(trace["spans"])
    svd_gflop = 0.0
    for shape, calls in trace["svd_shapes"].items():
        m, n = sorted((int(d) for d in shape.split("x")), reverse=True)
        # Golub-Kahan bidiagonalization, 4mn^2 - 4n^3/3 flops for singular
        # values only; four real flops per complex one.
        svd_gflop += calls * 4 * (4 * m * n * n - 4 * n ** 3 / 3) / 1e9
    eig = trace["eigensolves"]
    derived = {
        "eig_complex_calls": sum(v for k, v in eig.items()
                                 if k.startswith("channel.") and k.endswith("complex")),
        "eigensolves": sum(eig.values()),
        "eigensolves_complex": sum(v for k, v in eig.items() if k.endswith("complex")),
        "draws": len(draws),
        "draw_ms_p50": _percentile(draws, 50) * 1e3,
        "draw_ms_p98": _percentile(draws, 98) * 1e3,
        "svd_gflop": svd_gflop,
        "bytes_written": plain["bytes_written"],
        "cpu_s": plain["cpu_s"],
        "cpu_util": plain["cpu_s"] / plain["wall_s"],
        "wall_1t_s": single["wall_s"],
        "blas_speedup": single["wall_s"] / plain["wall_s"],
        "overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    if "cli.run_experiment" in table:
        root = table["cli.run_experiment"]
        derived["coverage"] = 1.0 - root["self_s"] / root["s"]
    metrics = {}
    for name, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "span":
            span, field = key.split(":")
            value = None if span in absent else table.get(span, EMPTY_SPAN)[field]
        elif kind == "count":
            value = None if key.rsplit("_", 1)[0] in absent else trace["counts"].get(key, 0)
        else:
            value = None if DERIVED_NEEDS.get(source) in absent else derived.get(source)
        if value is not None:
            metrics[name] = value
    return metrics


# ---------------------------------------------------------------------------
# command line


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads((HERE / "reference" / f"{workload}.json").read_text())
    deadline = time.monotonic() + RUN_BUDGET_S
    if trace:
        values, reps = measure_layers(workload, seed, reference, deadline)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, reps = measure_end_to_end(workload, seed, seconds, reference, deadline)
        units = dict(END_TO_END)
    failed = [r for r in reps if r["problems"]]
    for r in failed:
        print(f"{workload}: failed {r['mode']} repeat: {'; '.join(r['problems'])}",
              file=sys.stderr)
    return {
        "correct": not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "reps": reps,
    }


def _report(workload: str, seed: int, trace: bool, host: dict, res: dict) -> None:
    """Human-readable lines on stdout plus the JSON report file."""
    error_rate = res["failed"] / res["attempted"]
    print(f"{workload} seed={seed} trace={int(trace)}:")
    for name, m in res["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<44} {error_rate:>14.6g} 1  ({res['failed']} of {res['attempted']} "
          f"runs failed)")
    traced = next((r["trace"] for r in res["reps"] if r.get("trace")), None)
    if traced is not None:
        if traced["absent"]:
            print(f"{workload}: absent wrap targets: {', '.join(traced['absent'])}")
        for key, calls in sorted(traced["eigensolves"].items()):
            print(f"{workload}: eigensolve (computed) {key}: {calls} calls")
        for key, calls in sorted(traced["svd_shapes"].items()):
            print(f"{workload}: svd (computed) {key}: {calls} calls")
    reps = [{k: (str(v) if isinstance(v, Path) else v) for k, v in r.items()}
            for r in res["reps"]]
    report = {"workload": workload, "seed": seed, "trace": int(trace), "host": host,
              "error_rate": error_rate, "metrics": res["metrics"], "repeats": reps}
    (WORK / f"report-{workload}.json").write_text(json.dumps(report, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    WORK.mkdir(exist_ok=True)
    host = host_fingerprint(THREADS)
    print("host: " + "  ".join(f"{k}={v}" for k, v in host.items()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
            _report(name, args.seed, trace, host, results[name])
    except SetupError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        line = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}.{k}": m for w, r in results.items()
                            for k, m in r["metrics"].items()}}
    else:
        line = {k: v for k, v in results[args.workload].items() if k != "reps"}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
