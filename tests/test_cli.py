import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from holomimo.cli import (ConfigError, ExperimentConfig, _snr_grid, load_config, main,
                          run_experiment)
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
])
def test_coerce_rejections(tmp_path, overrides, match):
    with pytest.raises(ConfigError, match=match):
        load_config(str(write_config(tmp_path, **overrides)))


def test_bound_check_requires_covering_pattern(tmp_path):
    path = write_config(tmp_path, kind="bound-check", spectrum="isotropic",
                        pattern="matched(cap(0.5))")
    with pytest.raises(ConfigError, match="vanishes inside"):
        load_config(str(path))


def test_snr_grid_forms():
    cfg = ExperimentConfig("capacity", {}, snr_db=[0, 5.0, 10])
    assert np.array_equal(_snr_grid(cfg), [0.0, 5.0, 10.0])
    cfg = ExperimentConfig("capacity", {}, snr_db={"start": -10, "stop": 40, "step": 5})
    grid = _snr_grid(cfg)
    assert grid.size == 11
    assert grid[0] == -10.0
    assert grid[-1] == 40.0


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
    assert {"numpy", "scipy", "python", "holomimo"} <= set(manifest["versions"])
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
    assert "workers must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_run_experiment_api(tmp_path):
    cfg, label = load_config(str(write_config(tmp_path, kind="coupling-matrix", rho=[])))
    manifest = run_experiment(cfg, label, tmp_path / "api")
    assert manifest["outputs"] == ["coupling_matrix.csv"]
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


def test_console_script():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["holomimo"]
    module, func = target.split(":")
    proc = subprocess.run([sys.executable, "-c", _WRAPPER, module, func, "presets"],
                          capture_output=True, text=True, env=_checkout_env())
    assert_lists_presets(proc)


def test_python_dash_m():
    proc = subprocess.run([sys.executable, "-m", "holomimo", "presets"],
                          capture_output=True, text=True, env=_checkout_env())
    assert_lists_presets(proc)


@pytest.mark.skipif(shutil.which("holomimo") is None,
                    reason="no `holomimo` executable on PATH (created by pip install)")
def test_installed_console_script():
    assert_lists_presets(subprocess.run(["holomimo", "presets"],
                                        capture_output=True, text=True))
