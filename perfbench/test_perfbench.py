"""Tests of the benchmark itself: failure accounting, checks and tracing.

    python3 -m pytest -q perfbench

They use outputs synthesized from the stored reference, so no workload runs.
"""

from __future__ import annotations

import json

import pytest

import checks
import run
import tracing
from workloads import HERE, ROOT, WORKLOADS

CAPACITY = "capacity-desk"


def _reference(workload):
    return json.loads((HERE / "reference" / f"{workload}.json").read_text())


def _write_capacity_outputs(out, reference, tweak=None):
    """Write the capacity CSVs and manifest a reference run produced."""
    out.mkdir(parents=True, exist_ok=True)
    names = sorted(reference["files"])
    for name in names:
        cols = reference["files"][name]
        rows = list(zip(cols["snr_db"], cols["capacity_bits"], cols["stderr"], cols["n_mc"]))
        if tweak is not None and name == tweak[0]:
            rows[tweak[1]] = (rows[tweak[1]][0], tweak[2], *rows[tweak[1]][2:])
        lines = ["snr_db,capacity_bits,stderr,n_mc"]
        lines += [f"{s:.12g},{c:.12g},{e:.12g},{int(n)}" for s, c, e, n in rows]
        (out / name).write_text("\n".join(lines) + "\n")
    (out / "manifest.json").write_text(json.dumps({"outputs": names}))
    return names


def _fake_spawn(tmp_path, tweaks):
    """Stand-in for ``run.spawn`` that writes reference outputs; call ``i``
    applies ``tweaks[i]`` (file, row, capacity) if present."""
    reference = _reference(CAPACITY)
    calls = []

    def spawn(workload, seed, mode, threads, tag, deadline):
        rep = {"mode": mode, "threads": threads, "exit": 0, "out": tmp_path / tag,
               "peak_rss_mb": 100.0, "problems": [], "setup_s": 0.9}
        if mode != "setup":
            rep["outputs"] = _write_capacity_outputs(rep["out"], reference,
                                                     tweaks.get(len(calls)))
            rep["wall_s"], rep["cpu_s"] = 1.0, 1.5
            calls.append(tag)
        return rep

    return spawn


def _capacity_at(reference, name, row):
    return reference["files"][name]["capacity_bits"][row]


def test_clean_repeats_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "spawn", _fake_spawn(tmp_path, {}))
    res = run.run_workload(CAPACITY, 0, 0.0, trace=False)
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == run.SETUP_SPAWNS + run.MIN_REPEATS


def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch):
    ref = _reference(CAPACITY)
    name = "capacity_coupled_rho0.1.csv"
    wrong = _capacity_at(ref, name, 8) * 1.01  # 1% off at 30 dB: far outside MC error
    monkeypatch.setattr(run, "spawn", _fake_spawn(tmp_path, {0: (name, 8, wrong)}))
    res = run.run_workload(CAPACITY, 0, 0.0, trace=False)
    assert not res["correct"] and res["failed"] == 1
    bad = [r for r in res["reps"] if r["problems"]]
    assert "30 dB" in bad[0]["problems"][0]


def test_hash_mismatch_between_repeats_counts_as_failure(tmp_path, monkeypatch):
    ref = _reference(CAPACITY)
    name = "capacity_iid.csv"
    # A last-digit change passes every tolerance check but changes the bytes.
    nudged = _capacity_at(ref, name, 5) * (1 + 1e-11)
    tweaks = {2: (name, 5, nudged)}
    monkeypatch.setattr(run, "spawn", _fake_spawn(tmp_path, tweaks))
    monkeypatch.setattr(run, "MIN_REPEATS", 3)
    res = run.run_workload(CAPACITY, 0, 0.0, trace=False)
    assert res["failed"] == 1 and not res["correct"]
    bad = [r for r in res["reps"] if r["problems"]]
    assert "hash" in bad[0]["problems"][0]


def test_missing_file_and_physics_violation_fail(tmp_path):
    ref = _reference(CAPACITY)
    out = tmp_path / "out"
    names = _write_capacity_outputs(out, ref)
    assert checks.check(CAPACITY, out, names, ref) == []
    (out / "capacity_uncoupled.csv").unlink()
    assert any("missing" in p for p in checks.check(CAPACITY, out, names, ref))
    # Drop the 40 dB point below the uncoupled curve: two crossings, not one.
    names = _write_capacity_outputs(out, ref, ("capacity_coupled_rho0.3.csv", 10, 1.0))
    problems = checks.check(CAPACITY, out, names, ref)
    assert any("crossings" in p for p in problems)


def test_span_table_self_time_and_nesting():
    spans = [["cli.run_experiment", 0.0, 10.0, -1],
             ["cli.write", 1.0, 3.0, 0],
             ["cli.write", 1.5, 2.5, 1],
             ["kernels.phase_kernel", 4.0, 9.0, 0]]
    table = tracing.span_table(spans)
    assert table["cli.run_experiment"]["self_s"] == pytest.approx(3.0)
    assert table["cli.write"] == {"calls": 2, "s": pytest.approx(2.0),
                                  "self_s": pytest.approx(2.0)}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_draw_times():
    spans = [["capacity.ergodic_capacity", 0.0, 1.0, -1],
             ["channel.ChannelModel.realize", 0.1, 0.2, 0],
             ["channel.ChannelModel.realize", 0.4, 0.5, 0]]
    assert tracing.draw_times(spans) == pytest.approx([0.3, 0.6])


def test_absent_target_is_reported_not_zero():
    assert tracing._lookup("holomimo.channel", "NoSuchClass.method") == (None, None)
    trace = {"spans": [["cli.run_experiment", 0.0, 2.0, -1]], "counts": {},
             "eigensolves": {}, "svd_shapes": {},
             "absent": ["holomimo.fourier.variances_coupled", "holomimo.fourier._direction_values"]}
    plain = {"wall_s": 2.0, "cpu_s": 3.0, "bytes_written": 10}
    metrics = run._layer_metrics({"trace": trace, "wall_s": 2.1}, plain, {"wall_s": 3.0})
    assert "fourier.variances_coupled.s" not in metrics
    assert "fourier.evaluator_calls" not in metrics
    assert metrics["fourier.variances_uncoupled.s"] == 0.0
    assert metrics["cli.blas_speedup"] == pytest.approx(1.5)


def test_benchmark_json_matches_metric_lists():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
