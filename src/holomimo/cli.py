"""Command-line front end: reproducible experiments from config files.

Configs are YAML (JSON works too) key-value tables; see ``presets.py`` for
complete examples.  Every run writes CSV outputs plus a ``manifest.json``
echoing the resolved config, library versions, and wall time.  Reruns with
the same config and seed produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .capacity import ergodic_capacity, low_snr_bound_check
from .channel import (exact_correlation, exact_model, fourier_model, iid_model,
                      whitened_eigenvalues)
from .coupling import SingularCouplingError, coupling_general, regularize, write_coupling_csv
from .fourier import build_fourier_basis, build_lattice, write_variances_csv
from .geometry import geometry_from_config
from .presets import PRESET_NOTES, PRESETS
from .spectra import pattern_covers, pattern_from_name, spectrum_from_name

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "main", "entry"]

KINDS = ("eigenvalues", "dof-sweep", "capacity", "coupling-matrix", "bound-check")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Resolved experiment description; only ``kind`` and ``tx`` are required."""

    kind: str
    tx: dict
    rx: dict | None = None
    spectrum: str = "isotropic"
    pattern: str = "omni"
    rho: list = field(default_factory=list)
    seed: int = 0
    mc: int = 200
    snr_db: dict | list = field(default_factory=lambda: {"start": -10.0, "stop": 40.0, "step": 5.0})
    threshold_db: float = -40.0
    normalize: str = "receive"
    out_dir: str = "out"


def _coerce(cfg: ExperimentConfig) -> ExperimentConfig:
    """Type- and range-check a parsed config; raises ConfigError."""
    if cfg.kind not in KINDS:
        raise ConfigError(f"unknown kind {cfg.kind!r}; expected one of {', '.join(KINDS)}")
    try:
        tx = geometry_from_config(cfg.tx)
        rx = geometry_from_config(cfg.rx) if cfg.rx is not None else None
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc
    try:
        spec = spectrum_from_name(cfg.spectrum)
        pattern = pattern_from_name(cfg.pattern, spec)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.kind == "bound-check" and not pattern_covers(spec, pattern):
        raise ConfigError(
            f"pattern {pattern.name!r} vanishes inside the support of spectrum "
            f"{spec.name!r}; the coupled variances would diverge")
    if isinstance(cfg.rho, (int, float)):
        cfg.rho = [cfg.rho]
    if not isinstance(cfg.rho, list) or any(
            not isinstance(r, (int, float)) or r < 0 for r in cfg.rho):
        raise ConfigError(f"rho must be a list of nonnegative numbers, got {cfg.rho!r}")
    cfg.rho = [float(r) for r in cfg.rho]
    if cfg.kind == "coupling-matrix" and len(cfg.rho) > 1:
        raise ConfigError(f"coupling-matrix takes at most one rho, got {cfg.rho}")
    if not isinstance(cfg.seed, int) or not 0 <= cfg.seed < 2**128:
        raise ConfigError(f"seed must be an integer in [0, 2**128), got {cfg.seed!r}")
    if not isinstance(cfg.mc, int) or cfg.mc < 1:
        raise ConfigError("mc must be a positive integer")
    _snr_grid(cfg)  # validates
    if cfg.normalize not in ("transmit", "receive"):
        raise ConfigError(f"normalize must be 'transmit' or 'receive', got {cfg.normalize!r}")
    cfg.threshold_db = float(cfg.threshold_db)
    # Degenerate apertures cannot carry a wavenumber lattice or disk quadrature.
    needs_2d = cfg.kind in ("eigenvalues", "dof-sweep", "capacity", "bound-check")
    for g, name in ((tx, "tx"), (rx, "rx")):
        if g is not None and needs_2d:
            try:
                g.aperture_matrix()
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    return cfg


def load_config(source: str) -> tuple[ExperimentConfig, str]:
    """Resolve a preset name or a YAML/JSON config path."""
    if source in PRESETS:
        raw, label = dict(PRESETS[source]), source
    else:
        path = Path(source)
        if not path.exists():
            raise ConfigError(
                f"{source!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
                f"nor an existing config file")
        try:
            raw = yaml.safe_load(path.read_text())
        except yaml.YAMLError as exc:
            raise ConfigError(f"could not parse {source}: {exc}") from exc
        label = path.stem
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be a mapping, got {type(raw).__name__}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = {"kind", "tx"} - set(raw)
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(sorted(missing))}")
    return _coerce(ExperimentConfig(**raw)), label


def _snr_grid(cfg: ExperimentConfig) -> np.ndarray:
    s = cfg.snr_db
    if isinstance(s, list):
        if not s:
            raise ConfigError("snr_db list is empty")
        return np.asarray([float(v) for v in s])
    if isinstance(s, dict):
        extra = set(s) - {"start", "stop", "step"}
        if extra:
            raise ConfigError(f"unknown snr_db keys: {', '.join(sorted(extra))}")
        start, stop = float(s.get("start", -10.0)), float(s.get("stop", 40.0))
        step = float(s.get("step", 5.0))
        if step <= 0 or stop < start:
            raise ConfigError("snr_db needs step > 0 and stop >= start")
        return np.arange(start, stop + 0.5 * step, step)
    raise ConfigError("snr_db must be a list or a start/stop/step table")


# ---------------------------------------------------------------------------
# output helpers


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _write_csv(path: Path, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_eig_csv(path: Path, ev_desc: np.ndarray, n_ref: int, n_antennas: int) -> None:
    """Eigenvalues in dB under both normalizations (peak and mean-of-trace)."""
    ev = np.asarray(ev_desc, dtype=float)
    top = ev[0]
    mean = ev.sum() / n_antennas
    floor = top * 1e-30
    rows = []
    for i, v in enumerate(ev, start=1):
        vv = max(v, floor)
        rows.append((i, i / n_ref, 10.0 * np.log10(vv / top), 10.0 * np.log10(vv / mean)))
    _write_csv(path, "index,index_over_n,eig_db_max_normalized,eig_db_trace_normalized", rows)


def _write_capacity_csv(path: Path, curve) -> None:
    rows = zip(curve.snr_db, curve.capacity_bits, curve.stderr,
               [curve.n_mc] * curve.snr_db.size)
    _write_csv(path, "snr_db,capacity_bits,stderr,n_mc", rows)


def _rho_tag(rho: float) -> str:
    return f"{rho:g}"


# ---------------------------------------------------------------------------
# experiment executors


def _run_eigenvalues(cfg: ExperimentConfig, out: Path) -> list[str]:
    g = geometry_from_config(cfg.tx)
    spectrum = spectrum_from_name(cfg.spectrum)
    corr = exact_correlation(g, spectrum)
    basis = build_fourier_basis(g, spectrum)
    # (lattice size for the index/n axis, antenna count for the trace mean)
    refs = basis.n_points, g.n_antennas
    files = []

    ev = np.clip(corr.eigenvalues(), 0.0, None)
    _write_eig_csv(out / "eigs_exact_uncoupled.csv", ev, *refs)
    files.append("eigs_exact_uncoupled.csv")

    model_ev = basis.model_eigenvalues()
    _write_eig_csv(out / "eigs_fourier_uncoupled.csv", model_ev[model_ev > 0], *refs)
    files.append("eigs_fourier_uncoupled.csv")
    write_variances_csv(basis.lattice, basis.variances, out / "variances_uncoupled.csv")
    files.append("variances_uncoupled.csv")

    if cfg.rho:
        pattern = pattern_from_name(cfg.pattern, spectrum)
        base = coupling_general(g, pattern)
        for rho, ev in zip(cfg.rho, whitened_eigenvalues(corr, base, cfg.rho)):
            name = f"eigs_exact_coupled_rho{_rho_tag(rho)}.csv"
            _write_eig_csv(out / name, np.clip(ev, 0.0, None), *refs)
            files.append(name)
        cbasis = build_fourier_basis(g, spectrum, pattern, lattice=basis.lattice)
        cev = cbasis.model_eigenvalues()
        _write_eig_csv(out / "eigs_fourier_coupled.csv", cev[cev > 0], *refs)
        files.append("eigs_fourier_coupled.csv")
        write_variances_csv(cbasis.lattice, cbasis.variances, out / "variances_coupled.csv")
        files.append("variances_coupled.csv")
    return files


def _run_dof_sweep(cfg: ExperimentConfig, out: Path) -> list[str]:
    g = geometry_from_config(cfg.tx)
    spectrum = spectrum_from_name(cfg.spectrum)
    corr = exact_correlation(g, spectrum)
    thr = 10.0 ** (cfg.threshold_db / 10.0)
    refs = build_lattice(g).n_points, g.n_antennas
    files = []

    def count(ev):
        return int(np.count_nonzero(ev > ev[0] * thr))

    ev_unc = np.clip(corr.eigenvalues(), 0.0, None)
    _write_eig_csv(out / "eigs_exact_uncoupled.csv", ev_unc, *refs)
    files.append("eigs_exact_uncoupled.csv")
    rows = [("uncoupled", "", count(ev_unc), cfg.threshold_db)]

    base = coupling_general(g, pattern_from_name(cfg.pattern, spectrum))
    for rho, ev in zip(cfg.rho, whitened_eigenvalues(corr, base, cfg.rho)):
        ev = np.clip(ev, 0.0, None)
        name = f"eigs_exact_coupled_rho{_rho_tag(rho)}.csv"
        _write_eig_csv(out / name, ev, *refs)
        files.append(name)
        rows.append(("coupled", _rho_tag(rho), count(ev), cfg.threshold_db))

    _write_csv(out / "dof_counts.csv", "curve,rho,count_above_threshold,threshold_db", rows)
    files.append("dof_counts.csv")
    return files


def _run_capacity(cfg: ExperimentConfig, out: Path) -> list[str]:
    gt = geometry_from_config(cfg.tx)
    gr = geometry_from_config(cfg.rx) if cfg.rx is not None else gt
    n_rx = gr.n_antennas
    spectrum = spectrum_from_name(cfg.spectrum)
    corr = exact_correlation(gt, spectrum)
    models = [iid_model(n_rx, gt.n_antennas),
              exact_model(corr.eigenvalues(), n_rx, cfg.normalize, "uncoupled")]
    files = ["capacity_iid.csv", "capacity_uncoupled.csv"]
    if cfg.rho:
        base = coupling_general(gt, pattern_from_name(cfg.pattern, spectrum))
        for rho, ev in zip(cfg.rho, whitened_eigenvalues(corr, base, cfg.rho)):
            models.append(exact_model(ev, n_rx, cfg.normalize, f"coupled rho={rho:g}"))
            files.append(f"capacity_coupled_rho{_rho_tag(rho)}.csv")
    for name, curve in zip(files, ergodic_capacity(models, _snr_grid(cfg), cfg.mc, cfg.seed)):
        _write_capacity_csv(out / name, curve)
    return files


def _run_coupling_matrix(cfg: ExperimentConfig, out: Path) -> list[str]:
    g = geometry_from_config(cfg.tx)
    base = coupling_general(g, pattern_from_name(cfg.pattern, spectrum_from_name(cfg.spectrum)))
    if cfg.rho:
        base = regularize(base, cfg.rho[0])
    write_coupling_csv(base, out / "coupling_matrix.csv")
    return ["coupling_matrix.csv"]


def _run_bound_check(cfg: ExperimentConfig, out: Path) -> list[str]:
    gt = geometry_from_config(cfg.tx)
    gr = geometry_from_config(cfg.rx) if cfg.rx is not None else gt
    spectrum = spectrum_from_name(cfg.spectrum)
    pattern = pattern_from_name(cfg.pattern, spectrum)
    model = fourier_model(build_fourier_basis(gr, spectrum),
                          build_fourier_basis(gt, spectrum, pattern))
    result = low_snr_bound_check(model, cfg.mc, cfg.seed)
    payload = dataclasses.asdict(result)
    payload["spectrum"] = spectrum.name
    payload["pattern"] = pattern.name
    with open(out / "bound_check.json", "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ["bound_check.json"]


_EXECUTORS = {
    "eigenvalues": _run_eigenvalues,
    "dof-sweep": _run_dof_sweep,
    "capacity": _run_capacity,
    "coupling-matrix": _run_coupling_matrix,
    "bound-check": _run_bound_check,
}


# ---------------------------------------------------------------------------
# commands


def _thread_limits(workers: int | None):
    if workers is None:
        return contextlib.nullcontext()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("note: threadpoolctl not installed; --workers ignored", file=sys.stderr)
        return contextlib.nullcontext()
    return threadpool_limits(limits=workers)


def run_experiment(cfg: ExperimentConfig, label: str, out_dir: Path,
                   workers: int | None = None) -> dict:
    """Execute one experiment and write outputs plus a manifest; returns it."""
    if workers is not None and workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers}")
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    with _thread_limits(workers):
        files = _EXECUTORS[cfg.kind](cfg, out_dir)
    manifest = {
        "name": label,
        "kind": cfg.kind,
        "config": dataclasses.asdict(cfg),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "holomimo": __version__,
        },
        "seed": cfg.seed,
        "outputs": files,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(out_dir / "manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def _cmd_run(args) -> int:
    cfg, label = load_config(args.config)
    # Overrides pass the same checks as config values.
    overrides = {k: v for k, v in (("seed", args.seed), ("mc", args.mc)) if v is not None}
    cfg = _coerce(dataclasses.replace(cfg, **overrides))
    out_dir = Path(args.out_dir) if args.out_dir else Path(cfg.out_dir)
    manifest = run_experiment(cfg, label, out_dir, args.workers)
    for name in manifest["outputs"]:
        print(f"wrote {out_dir / name}")
    print(f"done: {label} ({cfg.kind}) in {manifest['wall_time_s']:.3f} s")
    return 0


def _cmd_validate(args) -> int:
    cfg, label = load_config(args.config)
    tx = geometry_from_config(cfg.tx)
    rx = geometry_from_config(cfg.rx) if cfg.rx is not None else tx
    grid = _snr_grid(cfg)
    print(f"ok: {label}: kind={cfg.kind}, tx={tx.n_antennas} antennas, "
          f"rx={rx.n_antennas} antennas, spectrum={cfg.spectrum}, pattern={cfg.pattern}, "
          f"rho={cfg.rho}, snr points={grid.size}, mc={cfg.mc}, seed={cfg.seed}")
    return 0


def _cmd_presets(args) -> int:
    width = max(len(n) for n in PRESETS)
    for name in PRESETS:
        print(f"{name:<{width}}  {PRESETS[name]['kind']:<15}  {PRESET_NOTES[name]}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="holomimo",
        description="Coupling-aware correlated-fading experiments for dense planar arrays.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a preset name or config file")
    p_run.add_argument("config", help="preset name or path to a YAML/JSON config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--mc", type=int, default=None, help="override the Monte-Carlo budget")
    p_run.add_argument("--out-dir", default=None, help="override the output directory")
    p_run.add_argument("--workers", type=int, default=None,
                       help="limit BLAS worker threads for this run")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("config", help="preset name or path to a YAML/JSON config")
    p_val.set_defaults(func=_cmd_validate)

    p_list = sub.add_parser("presets", help="list built-in presets")
    p_list.set_defaults(func=_cmd_presets)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SingularCouplingError, np.linalg.LinAlgError, FloatingPointError,
            RuntimeError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
