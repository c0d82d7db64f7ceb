import csv
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import yaml

import holomimo
from holomimo import _lapack
from holomimo.capacity import CapacityCurve, _usable_cpus
from holomimo.cli import (ConfigError, ExperimentConfig, _snr_grid, _write_capacity_csv,
                          _write_eig_csv, load_config, main, run_experiment)
from holomimo.geometry import geometry_from_config
from holomimo.presets import PRESETS


def write_config(tmp_path, name="exp.yaml", **overrides):
    cfg = {
        "kind": "eigenvalues",
        "tx": {"kind": "upa", "nx": 5, "ny": 5, "dx": 0.5},
        "rho": [0.1],
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_load_preset():
    cfg, label = load_config("fig2")
    assert label == "fig2"
    assert cfg.kind == "eigenvalues"
    assert cfg.seed == PRESETS["fig2"]["seed"]


def test_load_yaml_file(tmp_path):
    cfg, label = load_config(str(write_config(tmp_path)))
    assert label == "exp"
    assert cfg.rho == [0.1]
    assert cfg.seed == 7


def test_scalar_rho_promoted(tmp_path):
    cfg, _ = load_config(str(write_config(tmp_path, rho=0.25)))
    assert cfg.rho == [0.25]
    # the library entry promotes it too, and leaves the caller's config as given
    api = ExperimentConfig("dof-sweep", {"kind": "upa", "nx": 5, "ny": 5, "dx": 0.5}, rho=0.1)
    manifest = run_experiment(api, "api", tmp_path / "out")
    assert manifest["config"]["rho"] == [0.1]
    assert manifest["outputs"] == ["eigs_exact_uncoupled.csv", "eigs_exact_coupled_rho0.1.csv",
                                   "dof_counts.csv"]
    assert api.rho == 0.1


def test_json_config_accepted(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"kind": "coupling-matrix",
                                "tx": {"kind": "ula", "n": 4, "d": 0.5}}))
    cfg, label = load_config(str(path))
    assert cfg.kind == "coupling-matrix"
    assert label == "exp"


def test_load_config_failures(tmp_path):
    with pytest.raises(ConfigError, match="neither a preset"):
        load_config(str(tmp_path / "missing.yaml"))
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(str(write_config(tmp_path, typo=1)))
    bad = tmp_path / "nokind.yaml"
    bad.write_text(yaml.safe_dump({"tx": {"kind": "ula", "n": 4, "d": 0.5}}))
    with pytest.raises(ConfigError, match="missing required"):
        load_config(str(bad))
    listy = tmp_path / "list.yaml"
    listy.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="must be a mapping"):
        load_config(str(listy))
    broken = tmp_path / "broken.yaml"
    broken.write_text("kind: [eigenvalues\n")
    with pytest.raises(ConfigError, match="could not parse"):
        load_config(str(broken))


@pytest.mark.parametrize("overrides,match", [
    ({"kind": "frobnicate"}, "unknown kind"),
    ({"tx": {"kind": "upa", "nx": 3}}, "bad geometry"),
    ({"spectrum": "triangle"}, "unknown spectrum"),
    ({"pattern": "cardioid"}, "unknown pattern"),
    ({"rho": [-0.1]}, "nonnegative"),
    ({"rho": "lots"}, "nonnegative"),
    ({"seed": 1.5}, "seed"),
    ({"mc": 0}, "mc"),
    ({"normalize": "both"}, "normalize"),
    ({"snr_db": {"start": 0, "stop": -10, "step": 5}}, "snr_db"),
    ({"snr_db": {"start": 0, "stop": 10, "middle": 5}}, "unknown snr_db"),
    ({"snr_db": []}, "empty"),
    ({"snr_db": "auto"}, "snr_db"),
    ({"tx": {"kind": "ula", "n": 8, "d": 0.5}}, "tx"),
    ({"kind": "coupling-matrix", "rho": [0.1, 0.01]}, "at most one rho"),
    ({"seed": -1}, "seed"),
    ({"snr_db": [0, "high"]}, "snr_db entry must be a finite number"),
    ({"snr_db": {"start": "x"}}, "snr_db start must be a finite number"),
    ({"threshold_db": "low"}, "threshold_db must be a finite number"),
    ({"mc": True}, "mc must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"rho": [True]}, "nonnegative"),
    ({"tx": {"kind": "upa", "nx": 4.7, "ny": 4, "dx": 0.5}}, "nx must be an integer"),
    ({"tx": {"kind": "upa", "nx": 4, "ny": 4, "dx": True}}, "dx must be a finite number"),
    ({"tx": {"kind": "points", "positions": [[0, 0, 0], [True, 0.5, 0], [0.3, 0.9, 0]]}},
     "positions must be a finite number"),
    ({"tx": {"kind": "upa", "nx": 4, "ny": 4, "dx": 0.5, "offset": [0.3, 0, 0]}},
     "unknown geometry keys: offset"),
    ({"tx": {"kind": "ula", "n": 8, "d": 0.5}}, r"aperture \(3\.5, 0\) is degenerate"),
    ({"rho": [0.1, 0.1]}, r"rho values 0\.1 and 0\.1 share the file name \*_rho0\.1\.csv"),
    ({"rho": [0.1, 0.1000000001, 0.01]},
     r"rho values 0\.1 and 0\.1000000001 share the file name \*_rho0\.1\.csv"),
    ({"spectrum": "cap(0)"}, r"cap half-angle must lie in \(0, pi/2\], got 0\.0"),
    ({"spectrum": "cap(1e-9)"}, r"1 - cos\(theta0\) rounds to zero.*at least 1e-7 rad"),
])
def test_coerce_rejections(tmp_path, overrides, match):
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=match):
        load_config(str(path))
    # the library entry runs the same checks before it makes its output directory
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=match):
        run_experiment(ExperimentConfig(**yaml.safe_load(path.read_text())), "exp", out, 1)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["bound-check", "eigenvalues"])
def test_bound_check_requires_covering_pattern(tmp_path, capsys, kind):
    # both kinds build coupled Fourier variances, which diverge where the
    # pattern vanishes inside the spectrum's support
    path = write_config(tmp_path, kind=kind, spectrum="isotropic",
                        pattern="matched(cap(0.5))")
    with pytest.raises(ConfigError, match="vanishes inside"):
        load_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    assert "vanishes inside" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind,rho", [("capacity", [0.1]), ("dof-sweep", [0.1]),
                                      ("eigenvalues", [])])
def test_exact_paths_accept_uncovering_pattern(tmp_path, kind, rho):
    # exact whitening and R alone are well defined for any pattern
    path = write_config(tmp_path, kind=kind, spectrum="isotropic",
                        pattern="matched(cap(0.5))", rho=rho)
    cfg, _ = load_config(str(path))
    assert cfg.kind == kind


def test_decreasing_snr_list_is_a_config_error(tmp_path, capsys):
    path = write_config(tmp_path, kind="capacity", snr_db=[10, 0, 20], mc=2)
    with pytest.raises(ConfigError, match="must not decrease"):
        load_config(str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    assert "must not decrease" in capsys.readouterr().err
    assert not out.exists()
    # repeated values stay accepted
    cfg, _ = load_config(str(write_config(tmp_path, kind="capacity", snr_db=[0, 10, 10])))
    assert np.array_equal(_snr_grid(cfg), [0.0, 10.0, 10.0])


def test_counts_are_one_rule(tmp_path):
    # mc and seed are counts as nx is: a whole number in a float loads as an int
    path = write_config(tmp_path, mc=4.0, seed=3.0,
                        tx={"kind": "upa", "nx": 4.0, "ny": 4, "dx": 0.5})
    cfg, _ = load_config(str(path))
    assert (cfg.mc, cfg.seed) == (4, 3)
    assert type(cfg.mc) is int and type(cfg.seed) is int
    # the manifest echoes the counts as integers
    manifest = run_experiment(cfg, "counts", tmp_path / "out", 1)
    assert (manifest["config"]["mc"], manifest["seed"]) == (4, 3)


@pytest.mark.parametrize("rho", [["0.1"], [True]], ids=["string", "boolean"])
def test_rho_is_one_rule(tmp_path, rho):
    # the config check, the exact stage and the diagonal loading refuse a
    # string or a boolean rho with one message
    message = f"rho must be a nonnegative number or a list of them, got {rho!r}"
    with pytest.raises(ConfigError) as config:
        load_config(str(write_config(tmp_path, rho=rho)))
    g = holomimo.build_upa(3, 3, 0.5)
    with pytest.raises(ValueError) as stage:
        holomimo.exact_spectra(g, holomimo.isotropic_spectrum(), holomimo.omni_pattern(), rho)
    with pytest.raises(ValueError) as loading:
        holomimo.regularize(holomimo.coupling_closed_form(g), rho)
    assert str(config.value) == str(stage.value) == str(loading.value) == message


@pytest.mark.parametrize("kind", ["eigenvalues", "dof-sweep", "coupling-matrix"])
def test_rx_refused_where_no_executor_reads_it(tmp_path, kind):
    path = write_config(tmp_path, kind=kind, rx={"kind": "upa", "nx": 9, "ny": 2, "dx": 0.5})
    with pytest.raises(ConfigError, match="only capacity and bound-check"):
        load_config(str(path))


@pytest.mark.parametrize("text, match", [
    ("kind: eigenvalues\ntx: {nx: 4, ny: 4, dx: 0.5}\n1: foo\n", "non-string config keys: 1"),
    ("kind: capacity\ntx: {nx: 4, ny: 4, dx: 0.5}\nsnr_db: {1: 2}\n",
     "non-string snr_db keys: 1"),
    ("kind: eigenvalues\ntx: {nx: 4, ny: 4}\n", "missing required geometry keys: dx"),
    ("kind: eigenvalues\ntx: {kind: points}\n", "missing required geometry keys: positions"),
    ("kind: eigenvalues\ntx: {nx: 4, ny: 4, dx: 0.5, zz: 1, 5: 2}\n",
     "non-string geometry keys: 5"),
    # YAML 1.1 reads the key on as a boolean
    ("kind: eigenvalues\ntx: {nx: 4, ny: 4, dx: 0.5, on: 1}\n", "non-string geometry keys: True"),
    ("kind: capacity\ntx: {kind: ula, n: 2.5, d: 0.5}\n", r"n must be an integer >= 1, got 2\.5"),
    ("kind: capacity\ntx: {kind: ula, n: 4, d: true}\n", "d must be a finite number, got True"),
    ("kind: capacity\ntx: 5\n", "geometry must be a mapping, got int"),
    ("kind: capacity\ntx: {nx: 4, ny: 4, dx: 0.5}\n"
     "rx: {nx: 4, ny: 4, dx: 0.5, offset: [0, 0, 1]}\n", "unknown geometry keys: offset"),
], ids=["config-key", "snr-key", "upa-missing", "points-missing", "geometry-key",
        "yaml-boolean-key", "ula-count", "ula-spacing", "not-a-table", "offset"])
def test_every_config_table_takes_the_table_rule(tmp_path, capsys, text, match):
    # validate and run refuse each in one line naming the table's key, and
    # run makes no output directory
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.search(f"^config error: .*{match}$", err.strip()) and "Traceback" not in err, err
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_capacity_accepts_distinct_rx(tmp_path):
    rx = {"kind": "upa", "nx": 9, "ny": 2, "dx": 0.5}
    cfg, _ = load_config(str(write_config(tmp_path, kind="capacity", rx=rx)))
    assert cfg.rx == rx


def test_snr_grid_forms():
    cfg = ExperimentConfig("capacity", {}, snr_db=[0, 5.0, 10])
    assert np.array_equal(_snr_grid(cfg), [0.0, 5.0, 10.0])
    cfg = ExperimentConfig("capacity", {}, snr_db={"start": -10, "stop": 40, "step": 5})
    grid = _snr_grid(cfg)
    assert grid.size == 11
    assert grid[0] == -10.0
    assert grid[-1] == 40.0


@pytest.mark.parametrize("key, value", [("kind", ["eigenvalues"]), ("spectrum", 5),
                                        ("pattern", [1]), ("normalize", 1.0), ("out_dir", 5)],
                         ids=["kind", "spectrum", "pattern", "normalize", "out_dir"])
def test_a_string_key_of_another_type_is_a_config_error(tmp_path, capsys, monkeypatch, key,
                                                        value):
    # the config check refuses it, so validate and run report it and no run
    # starts; run resolves the config's out_dir only after that check
    path = write_config(tmp_path, **{key: value})
    with pytest.raises(ConfigError, match=f"^{key} must be a string, got "):
        load_config(str(path))
    monkeypatch.chdir(tmp_path)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 1
        assert "config error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_validate_and_error_exit_codes(tmp_path, capsys):
    assert main(["validate", "fig2"]) == 0
    assert "ok: fig2" in capsys.readouterr().out
    assert main(["validate", "no-such-preset"]) == 1
    assert "config error" in capsys.readouterr().err
    # quarter-wavelength coupling without loading is numerically singular
    path = write_config(tmp_path, tx={"kind": "upa", "nx": 10, "ny": 10, "dx": 0.25},
                        rho=[0.0])
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "numerical error" in capsys.readouterr().err


@pytest.mark.parametrize("positions", ["5", "[1, 2]", "[[0, 0, 0], [1, 0]]"],
                         ids=["number", "flat", "ragged"])
def test_validate_refuses_points_that_are_not_n_by_3(tmp_path, capsys, positions):
    path = tmp_path / "points.yaml"
    path.write_text(f"kind: coupling-matrix\ntx: {{kind: points, positions: {positions}}}\n")
    assert main(["validate", str(path)]) == 1
    assert "config error: bad geometry: positions must be (N, 3)" in capsys.readouterr().err


def test_validate_checks_the_config_once(monkeypatch, capsys):
    # one check builds fig5's 1681-antenna geometry once
    calls = []

    def counted(table):
        calls.append(table)
        return geometry_from_config(table)

    monkeypatch.setattr("holomimo.cli.geometry_from_config", counted)
    assert main(["validate", "fig5"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.startswith("ok: fig5: kind=dof-sweep, tx=1681 antennas")


def test_run_checks_the_config_once(monkeypatch, capsys, tmp_path):
    # the --seed override is applied before the one check, in run_experiment,
    # which then writes to the config's out_dir
    calls = []

    def counted(table):
        calls.append(table)
        return geometry_from_config(table)

    monkeypatch.setattr("holomimo.cli.geometry_from_config", counted)
    monkeypatch.chdir(tmp_path)
    assert main(["run", "fig5", "--seed", "3"]) == 0
    assert len(calls) == 1
    out = Path(PRESETS["fig5"]["out_dir"])
    assert json.loads((out / "manifest.json").read_text())["seed"] == 3
    assert capsys.readouterr().out.splitlines()[0] == f"wrote {out / 'eigs_exact_uncoupled.csv'}"


def test_run_eigenvalues_outputs(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    expected = {"eigs_exact_uncoupled.csv", "eigs_fourier_uncoupled.csv",
                "variances_uncoupled.csv", "eigs_exact_coupled_rho0.1.csv",
                "eigs_fourier_coupled.csv", "variances_coupled.csv"}
    assert expected <= {p.name for p in out.iterdir()}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) == expected
    assert manifest["kind"] == "eigenvalues"
    assert manifest["seed"] == 7
    assert manifest["config"]["out_dir"] == str(out)  # the directory written to
    assert manifest["blas_threads"] == (1 if _lapack.bound() else "unpinned")
    assert {"numpy", "python", "holomimo"} <= set(manifest["versions"])
    rows = read_csv(out / "eigs_exact_uncoupled.csv")
    assert list(rows[0]) == ["index", "index_over_n",
                             "eig_db_max_normalized", "eig_db_trace_normalized"]
    assert int(rows[0]["index"]) == 1
    assert float(rows[0]["eig_db_max_normalized"]) == 0.0
    db = [float(r["eig_db_max_normalized"]) for r in rows]
    assert all(a >= b for a, b in zip(db, db[1:]))


def test_run_dof_sweep_outputs(tmp_path):
    path = write_config(tmp_path, kind="dof-sweep",
                        tx={"kind": "upa", "nx": 7, "ny": 7, "dx": 0.25},
                        rho=[0.1, 0.01], threshold_db=-40)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    rows = read_csv(out / "dof_counts.csv")
    assert [r["curve"] for r in rows] == ["uncoupled", "coupled", "coupled"]
    assert [r["rho"] for r in rows] == ["", "0.1", "0.01"]
    counts = [int(r["count_above_threshold"]) for r in rows]
    assert all(1 <= c <= 49 for c in counts)
    assert (out / "eigs_exact_coupled_rho0.01.csv").exists()


def test_row_writers_pin_their_bytes(tmp_path):
    # %.12g floats, %d counts, and the dB floor at 1e-30 of the top
    curve = CapacityCurve(np.array([-10.0, 0.0, 12.5]), np.array([0.1, 1.0 / 3.0, 12.0]),
                          np.array([0.0, 1e-13, 0.25]), 4)
    assert _write_capacity_csv(tmp_path / "c.csv", curve) == "c.csv"
    assert (tmp_path / "c.csv").read_bytes() == (
        b"snr_db,capacity_bits,stderr,n_mc\n-10,0.1,0,4\n0,0.333333333333,1e-13,4\n"
        b"12.5,12,0.25,4\n")
    assert _write_eig_csv(tmp_path / "e.csv", np.array([4.0, 2.0, 1.0, 0.0, -1e-17]), 3, 5) \
        == "e.csv"
    assert (tmp_path / "e.csv").read_bytes() == (
        b"index,index_over_n,eig_db_max_normalized,eig_db_trace_normalized\n"
        b"1,0.333333333333,0,4.5593195565\n2,0.666666666667,-3.01029995664,1.54901959986\n"
        b"3,1,-6.02059991328,-1.46128035678\n4,1.33333333333,-300,-295.440680444\n"
        b"5,1.66666666667,-300,-295.440680444\n")


def test_dof_counts_bytes(tmp_path):
    # a string curve, an empty rho for the uncoupled row, %d counts, %.12g threshold
    cfg = ExperimentConfig(kind="dof-sweep", tx={"kind": "upa", "nx": 5, "ny": 5, "dx": 0.25},
                           rho=[0.1, 0.01], threshold_db=-30.5)
    run_experiment(cfg, "dof", tmp_path)
    assert (tmp_path / "dof_counts.csv").read_bytes() == (
        b"curve,rho,count_above_threshold,threshold_db\nuncoupled,,20,-30.5\n"
        b"coupled,0.1,24,-30.5\ncoupled,0.01,24,-30.5\n")


def test_dof_sweep_without_rho_builds_no_coupling(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coupling_general called without a rho")

    monkeypatch.setattr("holomimo.channel.coupling_general", refuse)
    path = write_config(tmp_path, kind="dof-sweep",
                        tx={"kind": "upa", "nx": 5, "ny": 5, "dx": 0.25}, rho=[])
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    assert [r["curve"] for r in read_csv(out / "dof_counts.csv")] == ["uncoupled"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["eigs_exact_uncoupled.csv", "dof_counts.csv"]
    assert "whitening" not in manifest


@pytest.mark.parametrize("spectrum, pattern, whitening", [
    ("cap(0.6)", "matched", {"path": "scalar", "kappa": 0.5}),
    ("cap(0.6)", "omni", {"path": "general"}),
], ids=["scalar", "general"])
def test_manifest_names_the_whitening_path(tmp_path, spectrum, pattern, whitening):
    path = write_config(tmp_path, kind="dof-sweep", spectrum=spectrum, pattern=pattern,
                        tx={"kind": "upa", "nx": 4, "ny": 4, "dx": 0.5}, rho=[0.1])
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["whitening"] == whitening
    assert {"outputs", "seed", "kind", "versions", "workers", "wall_time_s"} <= set(manifest)


def test_spelled_out_matched_pattern_takes_the_scalar_map(tmp_path):
    # "matched(cap(0.6))" parses the cap again; it is the same density as bare
    # "matched", so both take the scalar map and write the same bytes
    outs = []
    for pattern in ("matched", "matched(cap(0.6))"):
        path = write_config(tmp_path, spectrum="cap(0.6)", pattern=pattern,
                            tx={"kind": "upa", "nx": 6, "ny": 5, "dx": 0.5}, rho=[0.1, 0.01])
        out = tmp_path / pattern
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["whitening"] == {"path": "scalar", "kappa": 0.5}
        outs.append(out)
    names = sorted(p.name for p in outs[0].glob("*.csv"))
    assert names == sorted(p.name for p in outs[1].glob("*.csv"))
    assert "eigs_exact_coupled_rho0.01.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_capacity_outputs(tmp_path):
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 3, "ny": 3, "dx": 0.5},
                        rho=[0.1], mc=4, snr_db=[0.0, 10.0])
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    for name in ("capacity_iid.csv", "capacity_uncoupled.csv", "capacity_coupled_rho0.1.csv"):
        rows = read_csv(out / name)
        assert [float(r["snr_db"]) for r in rows] == [0.0, 10.0]
        assert all(int(r["n_mc"]) == 4 for r in rows)
        caps = [float(r["capacity_bits"]) for r in rows]
        assert caps[1] > caps[0] > 0


_LAZY_IMPORTS = """
import json, sys
from pathlib import Path
before = set(sys.modules)
from holomimo.cli import ExperimentConfig, load_config, run_experiment
out = Path(sys.argv[1])
load_config("fig3")
run_experiment(ExperimentConfig(kind="eigenvalues", tx={"nx": 4, "ny": 4, "dx": 0.5}), "e", out / "e")
unused = {"hashlib", "_hashlib", "yaml", "numpy.random"} & (set(sys.modules) - before)
assert not unused, sorted(unused)
(out / "m.yaml").write_text("kind: coupling-matrix\\ntx: {nx: 3, ny: 3, dx: 0.5}\\n")
cfg, label = load_config(str(out / "m.yaml"))
assert "yaml" in sys.modules
run_experiment(cfg, label, out / "m")
cfg = ExperimentConfig(kind="capacity", tx={"nx": 2, "ny": 2, "dx": 0.5}, mc=2, snr_db=[0.0])
print(json.dumps(run_experiment(cfg, "c", out / "c", workers=1)["mc_solvers"]))
"""


def test_a_run_loads_only_the_modules_it_needs(tmp_path):
    # a preset and an eigenvalue run load neither OpenSSL (hashlib), the YAML
    # parser nor numpy.random; a config file loads the parser, a coupling
    # matrix still carries its geometry hash, and a capacity run's manifest
    # names the Monte-Carlo solvers
    proc = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS, str(tmp_path)], env=_checkout_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "m" / "coupling_matrix.csv").read_text().splitlines()[:4]
    assert header == ["# n_antennas=9", "# rho=0", "# kind=closed-form", "# geometry=518fe5835c52"]
    solvers = json.loads(proc.stdout.splitlines()[-1])
    assert solvers["gram"] == "eigvalsh" and solvers["two_stage_min_rows"] == 400
    assert solvers["iid"].startswith("Wishart law, ")
    assert solvers["lapack"] in ("numpy's OpenBLAS through ctypes", "numpy fallback")


def test_capacity_runs_on_a_line_array(tmp_path):
    # capacity builds neither a wavenumber lattice nor a disk rule, so a line
    # array's degenerate aperture is no reason to refuse it (eigenvalues still
    # refuses one, see test_coerce_rejections)
    path = write_config(tmp_path, kind="capacity", tx={"kind": "ula", "n": 16, "d": 0.5},
                        rho=[0.1], mc=4)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    for name in ("capacity_iid.csv", "capacity_uncoupled.csv", "capacity_coupled_rho0.1.csv"):
        rows = read_csv(out / name)
        assert rows and all(int(r["n_mc"]) == 4 for r in rows)
        assert all(np.isfinite(float(r["capacity_bits"])) for r in rows)


@pytest.mark.parametrize("spectrum, pattern", [
    ("isotropic", "omni"), ("cap(0.6)", "omni"), ("cap(0.6)", "matched"),
])
def test_capacity_runs_at_a_tiny_rho(tmp_path, spectrum, pattern):
    # at rho = 1e-8 the whitening lifts R's roundoff on a 16x16 quarter-
    # wavelength array to about -1e-7 of the top; the exact stage clips it,
    # since the whitened matrix is as positive semidefinite as R
    path = write_config(tmp_path, kind="capacity", tx={"nx": 16, "ny": 16, "dx": 0.25},
                        spectrum=spectrum, pattern=pattern, rho=[1e-8], mc=4)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out), "--workers", "1"]) == 0
    for name in ("capacity_iid.csv", "capacity_uncoupled.csv", "capacity_coupled_rho1e-08.csv"):
        caps = np.array([float(r["capacity_bits"]) for r in read_csv(out / name)])
        assert np.all(np.isfinite(caps)) and np.all(np.diff(caps) >= 0.0), name


def test_bound_check_bytes_are_pinned(tmp_path):
    # an 8x8 half-wavelength array at seed 0 on one worker, so one BLAS
    # thread: the white side of the bound is the dense unit-spectrum Gram on
    # the model's own W, and these bytes pin it
    cfg = ExperimentConfig("bound-check", {"nx": 8, "ny": 8, "dx": 0.5}, mc=40)
    run_experiment(cfg, "bound", tmp_path, workers=1)
    assert (tmp_path / "bound_check.json").read_bytes() == (
        b'{\n  "holds": true,\n  "lhs_mean": 536.1303173000587,\n  "n_mc": 40,\n'
        b'  "pattern": "omni",\n  "ratio": 0.3315005138274963,\n'
        b'  "rhs_mean": 1617.2835182362526,\n  "spectrum": "isotropic",\n'
        b'  "stderr_lhs": 6.229338119621387,\n  "violations": 0\n}\n')


def test_bound_check_manifest_names_the_solver_of_its_lattice_grams(tmp_path):
    # the pass solves Grams of the smaller lattice, 81 rows on a 21x21
    # quarter-wavelength array of 441 antennas, on numpy's eigvalsh
    from holomimo import _lapack

    cfg = ExperimentConfig("bound-check", {"nx": 21, "ny": 21, "dx": 0.25}, mc=2)
    manifest = run_experiment(cfg, "bound", tmp_path, workers=1)
    assert manifest["mc_solvers"] == _lapack.solvers(81)
    assert manifest["mc_solvers"]["gram"] == "eigvalsh"
    assert manifest["workers"] == 1


def test_run_coupling_matrix_outputs(tmp_path):
    path = write_config(tmp_path, kind="coupling-matrix",
                        tx={"kind": "upa", "nx": 3, "ny": 3, "dx": 0.5}, rho=[0.2])
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    lines = (out / "coupling_matrix.csv").read_text().splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    assert any("rho" in ln for ln in header)
    data = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
    diag = [float(v) for r, c, v in data if r == c]
    assert np.allclose(diag, 1.2)


def test_run_bound_check_outputs(tmp_path):
    path = write_config(tmp_path, kind="bound-check",
                        tx={"kind": "upa", "nx": 3, "ny": 3, "dx": 0.4}, mc=50)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 0
    payload = json.loads((out / "bound_check.json").read_text())
    assert payload["holds"] is True
    assert payload["violations"] == 0
    assert payload["n_mc"] == 50
    assert payload["spectrum"] == "isotropic"


def test_reruns_are_byte_identical(tmp_path):
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 3, "ny": 3, "dx": 0.5},
                        rho=[0.1], mc=3, snr_db=[0.0, 10.0])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(path), "--out-dir", str(out_a)]) == 0
    assert main(["run", str(path), "--out-dir", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.glob("*.csv"))
    assert names
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_seed_and_mc_overrides(tmp_path):
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 3, "ny": 3, "dx": 0.5},
                        rho=[], mc=5, snr_db=[0.0])
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out), "--seed", "99", "--mc", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["mc"] == 2
    rows = read_csv(out / "capacity_iid.csv")
    assert all(int(r["n_mc"]) == 2 for r in rows)


def test_overrides_are_validated(tmp_path, capsys):
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 3, "ny": 3, "dx": 0.5},
                        rho=[], mc=2, snr_db=[0.0])
    for flag, value in (("--seed", "-1"), ("--seed", str(2**128)), ("--mc", "0")):
        out = tmp_path / f"out{flag}{value}"
        assert main(["run", str(path), "--out-dir", str(out), flag, value]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()


def test_workers_flag(tmp_path):
    path = write_config(tmp_path, kind="coupling-matrix",
                        tx={"kind": "ula", "n": 4, "d": 0.5}, rho=[])
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--workers", "1"]) == 0


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_refused(tmp_path, capsys, workers):
    path = write_config(tmp_path, kind="coupling-matrix",
                        tx={"kind": "ula", "n": 4, "d": 0.5}, rho=[])
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out), "--workers", workers]) == 1
    assert "workers must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_workers_above_usable_cpus_refused(tmp_path, capsys):
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 2, "ny": 2, "dx": 0.5}, rho=[], mc=2)
    out = tmp_path / "out"
    over = str(_usable_cpus() + 1)
    assert main(["run", str(path), "--out-dir", str(out), "--workers", over]) == 1
    assert "usable CPUs" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workers", [1.5, True, "1"], ids=["fractional", "boolean", "string"])
def test_run_experiment_takes_the_worker_rule(tmp_path, workers):
    # a library caller gets a ConfigError and no output directory, as the CLI does
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 2, "ny": 2, "dx": 0.5}, rho=[], mc=2)
    cfg, label = load_config(str(path))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="workers must be an integer >= 1"):
        run_experiment(cfg, label, out, workers=workers)
    assert not out.exists()


@pytest.mark.parametrize("snr_db", [[0, 4000], {"start": 0, "stop": 4000, "step": 1000}],
                         ids=["list", "table"])
def test_an_snr_grid_beyond_the_float_range_is_a_config_error(tmp_path, capsys, snr_db):
    # 4000 dB is finite but overflows once linear: validate refuses it, and
    # run writes nothing
    path = write_config(tmp_path, kind="capacity", snr_db=snr_db, mc=2)
    assert main(["validate", str(path)]) == 1
    assert "positive and finite once linear" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out)]) == 1
    assert not out.exists()


def test_out_of_memory_is_one_line_with_exit_2(tmp_path, capsys):
    # 10**13 draws ask the worker for about 870 TiB, beyond the address space,
    # so the allocation fails at once without touching memory
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 2, "ny": 2, "dx": 0.5},
                        rho=[0.01], mc=10**13, snr_db=[0.0])
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out"), "--workers", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("out of memory: Unable to allocate")
    assert "(10000000000000, 3, 4)" in err and "lower mc, the SNR grid or the array size" in err
    assert not multiprocessing.active_children()


def _small_capacity(tmp_path):
    return write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 6, "ny": 6, "dx": 0.4},
                        rho=[0.1], mc=8, snr_db=[-10.0, 10.0, 30.0])


def assert_same_csvs(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.glob("*.csv"))
    assert names == sorted(p.name for p in dir_b.glob("*.csv")) and names
    for name in names:
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes(), name


@pytest.mark.skipif(_usable_cpus() < 2, reason="needs two usable CPUs")
def test_capacity_bytes_do_not_depend_on_workers(tmp_path):
    path = _small_capacity(tmp_path)
    for workers in ("1", "2"):
        assert main(["run", str(path), "--out-dir", str(tmp_path / workers),
                     "--workers", workers]) == 0
        manifest = json.loads((tmp_path / workers / "manifest.json").read_text())
        assert manifest["workers"] == int(workers)
    assert_same_csvs(tmp_path / "1", tmp_path / "2")


def test_run_experiment_api(tmp_path):
    cfg, label = load_config(str(write_config(tmp_path, kind="coupling-matrix", rho=[])))
    manifest = run_experiment(cfg, label, tmp_path / "api")
    assert manifest["outputs"] == ["coupling_matrix.csv"]
    assert manifest["workers"] == 0  # no Monte-Carlo pass, no worker process
    assert (tmp_path / "api" / "manifest.json").exists()


REPO = Path(__file__).resolve().parents[1]

# What pip's generated `holomimo` wrapper does: set argv[0], import the
# declared module and exit with the declared function's return value.
_WRAPPER = """\
import importlib, sys
sys.argv[0] = "holomimo"
module, func = sys.argv.pop(1), sys.argv.pop(1)
sys.exit(getattr(importlib.import_module(module), func)())
"""


def assert_lists_presets(proc):
    assert proc.returncode == 0, proc.stderr
    for name in PRESETS:
        assert name in proc.stdout


def _checkout_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env


def test_readme_quick_start_runs(tmp_path):
    # the README's library example, run as a reader would paste it
    blocks = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(), re.S)
    assert blocks
    for block in blocks:
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", block],
                              cwd=tmp_path, env=_checkout_env(), capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr


def test_console_script():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["holomimo"]
    module, func = target.split(":")
    proc = subprocess.run([sys.executable, "-c", _WRAPPER, module, func, "presets"],
                          capture_output=True, text=True, env=_checkout_env())
    assert_lists_presets(proc)


def test_presets_command_lists_every_preset_with_its_kind(capsys):
    assert main(["presets"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PRESETS)
    for line, (name, preset) in zip(lines, PRESETS.items()):
        assert line.split()[:2] == [name, preset["kind"]]


def test_python_dash_m():
    proc = subprocess.run([sys.executable, "-m", "holomimo", "presets"],
                          capture_output=True, text=True, env=_checkout_env())
    assert_lists_presets(proc)


@pytest.mark.skipif(shutil.which("holomimo") is None,
                    reason="no `holomimo` executable on PATH (created by pip install)")
def test_installed_console_script():
    assert_lists_presets(subprocess.run(["holomimo", "presets"],
                                        capture_output=True, text=True))


def test_public_names_are_pinned():
    # an export is added or removed only by editing this list too
    assert sorted(holomimo.__all__) == [
        "AngularSpectrum", "AntennaPattern", "ArrayGeometry", "BoundCheck", "CapacityCurve",
        "ChannelModel", "CorrelationMatrix", "CouplingMatrix", "FourierBasis", "Kernel",
        "SingularCouplingError", "WavenumberLattice", "build_fourier_basis", "build_lattice",
        "build_ula", "build_upa", "cap_constant", "cap_spectrum", "coupled_correlation_exact",
        "coupling_closed_form", "coupling_general", "ergodic_capacity", "exact_correlation",
        "exact_model", "exact_spectra", "fourier_matrix", "fourier_model",
        "geometry_from_config", "hemisphere_quadrature", "iid_model", "isotropic_spectrum",
        "low_snr_bound_check", "matched_pattern", "omni_pattern", "pattern_covers",
        "quadrature_for", "regularize", "spd_inv_sqrt", "spd_sqrt", "variances_coupled",
        "variances_uncoupled", "whitened_eigenvalues", "write_coupling_csv",
        "write_variances_csv",
    ]


def test_star_import_binds_no_module():
    # the package's submodules (capacity, channel, ...) are not exports: a
    # star import must not bind them over the caller's own names
    namespace = {}
    exec("from holomimo import *", namespace)
    modules = [name for name, value in namespace.items()
               if not name.startswith("__") and isinstance(value, type(holomimo))]
    assert modules == []
    assert sorted(name for name in namespace if not name.startswith("__")) \
        == sorted(holomimo.__all__)


# numpy is the only numerical dependency: with scipy made unimportable the
# package still runs a coupled eigenvalues config, and builds C for a cap
# pattern on an irregular array, whose radial rule interpolates its J0
# integral over more distinct antenna distances than Chebyshev nodes.
_NO_SCIPY = """\
import sys
sys.modules["scipy"] = None
import numpy as np
import holomimo, holomimo.cli
from holomimo import ArrayGeometry, cap_spectrum, coupling_general, matched_pattern
from holomimo.coupling import _NORM_TOL
assert holomimo.cli.main(["run", sys.argv[1], "--out-dir", sys.argv[2]]) == 0
k = np.arange(10)
spiral = 0.3 * np.sqrt(k) * np.exp(2.4j * k)
g = ArrayGeometry(np.column_stack([spiral.real, spiral.imag, np.zeros(10)]))
c = coupling_general(g, matched_pattern(cap_spectrum(0.5)))
assert c.grid is None and abs(c.matrix[0, 0] - 1.0) <= _NORM_TOL, c.matrix[0, 0]
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None]
assert not loaded, loaded
"""


def test_runs_without_scipy(tmp_path):
    path = write_config(tmp_path, tx={"kind": "upa", "nx": 4, "ny": 4, "dx": 0.3})
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY, str(path), str(out)],
                          capture_output=True, text=True, env=_checkout_env())
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert "eigs_exact_coupled_rho0.1.csv" in manifest["outputs"]


# Every dense stage runs on one BLAS thread, so the caller's own thread count
# leaves the bytes unchanged: the capacity draws' and fig2's eigenvalues alike.
def test_bytes_do_not_depend_on_caller_blas_threads(tmp_path):
    configs = {"capacity": str(_small_capacity(tmp_path)), "fig2": "fig2"}
    for threads in ("1", "2"):
        env = dict(_checkout_env(), OPENBLAS_NUM_THREADS=threads)
        for name, config in configs.items():
            proc = subprocess.run([sys.executable, "-m", "holomimo", "run", config,
                                   "--out-dir", str(tmp_path / threads / name)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
    for name in configs:
        assert_same_csvs(tmp_path / "1" / name, tmp_path / "2" / name)


def _proc_stat(pid):
    """(state, parent pid, start time) of a process from /proc; None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), fields[19]


def _pool_children(pid):
    """{pid: start time} of a process's multiprocessing children (workers and
    the resource tracker), and how many of them are spawned workers."""
    found, workers = {}, 0
    for entry in Path("/proc").iterdir():
        stat = _proc_stat(entry.name) if entry.name.isdigit() else None
        if stat is None or stat[1] != pid:
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
        except OSError:
            continue
        if "multiprocessing" in cmdline:
            found[int(entry.name)] = stat[2]
            workers += "spawn_main" in cmdline
    return found, workers


def _alive(pid, start):
    stat = _proc_stat(pid)
    return stat is not None and stat[2] == start and stat[0] != "Z"


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/stat").exists(),
                    reason="worker PIDs are read from /proc")
def test_killed_parent_leaves_no_worker(tmp_path):
    workers = min(2, _usable_cpus())
    path = write_config(tmp_path, kind="capacity",
                        tx={"kind": "upa", "nx": 16, "ny": 16, "dx": 0.4},
                        rho=[0.1], mc=5000, snr_db=[0.0])
    proc = subprocess.Popen([sys.executable, "-m", "holomimo", "run", str(path), "--out-dir",
                             str(tmp_path / "out"), "--workers", str(workers)],
                            env=_checkout_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    children = {}
    try:
        deadline = time.monotonic() + 60.0
        started = 0
        while started < workers and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            found, started = _pool_children(proc.pid)
            children.update(found)
        assert started == workers, f"{started} of {workers} workers seen before the parent ended"
        time.sleep(0.5)  # let the workers get into their draws
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10.0
        while any(_alive(*c) for c in children.items()) and time.monotonic() < deadline:
            time.sleep(0.1)
        survivors = [pid for pid, start in children.items() if _alive(pid, start)]
        assert not survivors, f"processes {survivors} outlived their killed parent"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid, start in children.items():
            if _alive(pid, start):
                os.kill(pid, signal.SIGKILL)
