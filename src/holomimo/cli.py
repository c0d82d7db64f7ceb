"""Command-line front end: reproducible experiments from config files.

Configs are YAML (JSON works too) key-value tables; see ``presets.py`` for
complete examples.  Every run writes CSV outputs plus a ``manifest.json``
echoing the resolved config, library versions, and wall time.  Reruns with
the same config and seed produce byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .capacity import _check_snr, ergodic_capacity, low_snr_bound_check
from .channel import _check_normalize, exact_model, exact_spectra, fourier_model, iid_model
from .coupling import (SingularCouplingError, _check_rho, coupling_general, coupling_ratio,
                       regularize, write_coupling_csv)
from .fourier import build_fourier_basis, build_lattice, write_variances_csv
from .geometry import _config_number, geometry_from_config
from .presets import PRESET_NOTES, PRESETS
from .spectra import _check_covers, pattern_from_name, spectrum_from_name

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "run_experiment", "main", "entry"]

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


def _coerce(cfg: ExperimentConfig):
    """Type- and range-check a config, raising ConfigError; returns the checked copy
    and its names as objects, (tx, rx, spectrum, pattern) with rx defaulting to tx."""
    for f in dataclasses.fields(cfg):
        if f.type == "str" and not isinstance(getattr(cfg, f.name), str):
            raise ConfigError(f"{f.name} must be a string, got {getattr(cfg, f.name)!r}")
    if cfg.kind not in _EXECUTORS:
        raise ConfigError(f"unknown kind {cfg.kind!r}; expected one of {', '.join(_EXECUTORS)}")
    if cfg.rx is not None and cfg.kind not in ("capacity", "bound-check"):
        raise ConfigError(f"{cfg.kind} runs on tx alone; only capacity and bound-check "
                          f"use an rx geometry")
    try:
        tx = geometry_from_config(cfg.tx)
        rx = geometry_from_config(cfg.rx) if cfg.rx is not None else tx
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad geometry: {exc}") from exc
    # the library's own rules, their ValueErrors turned into ConfigErrors
    try:
        rho = _check_rho(cfg.rho).tolist()
        seed = _config_number("seed", cfg.seed, integral=True)
        mc = _config_number("mc", cfg.mc, integral=True)
        _check_normalize(cfg.normalize)
        spectrum = spectrum_from_name(cfg.spectrum)
        pattern = pattern_from_name(cfg.pattern, spectrum)
        # Only the coupled Fourier variances deconvolve the pattern from the spectrum.
        if cfg.kind == "bound-check" or (cfg.kind == "eigenvalues" and rho):
            _check_covers(spectrum, pattern)
        _snr_grid(cfg)  # validates
        threshold_db = _config_number("threshold_db", cfg.threshold_db)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # Output file names and labels carry each rho as %g.
    tags = [f"{r:g}" for r in rho]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise ConfigError(f"rho values {rho[tags.index(tag)]!r} and {rho[i]!r} share "
                              f"the file name *_rho{tag}.csv; give each rho a distinct %g name")
    if cfg.kind == "coupling-matrix" and len(rho) > 1:
        raise ConfigError(f"coupling-matrix takes at most one rho, got {rho}")
    if not 0 <= seed < 2**128:
        raise ConfigError(f"seed must be an integer in [0, 2**128), got {cfg.seed!r}")
    if mc < 1:
        raise ConfigError(f"mc must be a positive integer, got {cfg.mc!r}")
    # Only the kinds that build a wavenumber lattice need a two-dimensional aperture.
    if cfg.kind not in ("coupling-matrix", "capacity"):
        for g, name in ((tx, "tx"), (rx, "rx")):
            try:
                g.aperture_matrix()
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    return (dataclasses.replace(cfg, rho=rho, seed=seed, mc=mc, threshold_db=threshold_db),
            (tx, rx, spectrum, pattern))


def load_config(source: str) -> tuple[ExperimentConfig, str]:
    """Resolve a preset name or a YAML/JSON config path into a checked config."""
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
    return _coerce(ExperimentConfig(**raw))[0], label


def _snr_grid(cfg: ExperimentConfig) -> np.ndarray:
    s = cfg.snr_db
    if isinstance(s, list):
        return _check_snr([_config_number("snr_db entry", v) for v in s])
    if isinstance(s, dict):
        extra = set(s) - {"start", "stop", "step"}
        if extra:
            raise ValueError(f"unknown snr_db keys: {', '.join(sorted(extra))}")
        start, stop, step = (_config_number(f"snr_db {k}", s.get(k, v))
                             for k, v in (("start", -10.0), ("stop", 40.0), ("step", 5.0)))
        if step <= 0 or stop < start:
            raise ValueError("snr_db needs step > 0 and stop >= start")
        return np.arange(start, stop + 0.5 * step, step)
    raise ValueError("snr_db must be a list or a start/stop/step table")


# ---------------------------------------------------------------------------
# output helpers


def _write_csv(path: Path, header: str, fmt: str, rows) -> str:
    """The header line, then one ``fmt % row`` line per row."""
    line = fmt + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(line % row for row in rows)
    return path.name


def _write_json(path: Path, payload: dict) -> str:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.name


def _write_eig_csv(path: Path, ev: np.ndarray, n_ref: int, n_antennas: int) -> str:
    """Eigenvalues in dB under both normalizations (peak and mean-of-trace) of
    a nonnegative spectrum, such as ``exact_spectra`` returns."""
    top = ev[0]
    mean = ev.sum() / n_antennas
    floor = top * 1e-30
    vv = np.maximum(ev, floor)
    index = np.arange(1, ev.size + 1)
    rows = zip(index.tolist(), (index / n_ref).tolist(), (10.0 * np.log10(vv / top)).tolist(),
               (10.0 * np.log10(vv / mean)).tolist())
    return _write_csv(path, "index,index_over_n,eig_db_max_normalized,eig_db_trace_normalized",
                      "%d,%.12g,%.12g,%.12g", rows)


def _write_capacity_csv(path: Path, curve) -> str:
    rows = zip(curve.snr_db.tolist(), curve.capacity_bits.tolist(), curve.stderr.tolist(),
               [curve.n_mc] * curve.snr_db.size)
    return _write_csv(path, "snr_db,capacity_bits,stderr,n_mc", "%.12g,%.12g,%.12g,%d", rows)


# ---------------------------------------------------------------------------
# experiment executors: each takes the config, the output directory, the
# Monte-Carlo worker count and the resolved (tx, rx, spectrum, pattern), and
# returns the files it wrote.


def _write_coupled_eigs(out: Path, rhos, rows, refs) -> list[str]:
    return [_write_eig_csv(out / f"eigs_exact_coupled_rho{rho:g}.csv", ev, *refs)
            for rho, ev in zip(rhos, rows)]


def _write_fourier(out: Path, basis, refs) -> list[str]:
    """Model eigenvalues and cell variances of one basis flavor."""
    ev = basis.model_eigenvalues()
    files = [_write_eig_csv(out / f"eigs_fourier_{basis.flavor}.csv", ev[ev > 0], *refs),
             f"variances_{basis.flavor}.csv"]
    write_variances_csv(basis.lattice, basis.variances, out / files[1])
    return files


def _run_eigenvalues(cfg: ExperimentConfig, out: Path, workers: int, g, rx, spectrum,
                     pattern) -> list[str]:
    ev, coupled = exact_spectra(g, spectrum, pattern, cfg.rho)
    basis = build_fourier_basis(g, spectrum)
    # (lattice size for the index/n axis, antenna count for the trace mean)
    refs = basis.n_points, g.n_antennas
    files = [_write_eig_csv(out / "eigs_exact_uncoupled.csv", ev, *refs),
             *_write_fourier(out, basis, refs)]
    if cfg.rho:
        files += _write_coupled_eigs(out, cfg.rho, coupled, refs)
        files += _write_fourier(out, build_fourier_basis(g, spectrum, pattern), refs)
    return files


def _run_dof_sweep(cfg: ExperimentConfig, out: Path, workers: int, g, rx, spectrum,
                   pattern) -> list[str]:
    ev, coupled = exact_spectra(g, spectrum, pattern, cfg.rho)
    thr = 10.0 ** (cfg.threshold_db / 10.0)
    refs = build_lattice(g).n_points, g.n_antennas

    def count(ev):
        return int(np.count_nonzero(ev > ev[0] * thr))

    rows = [("uncoupled", "", count(ev), cfg.threshold_db)]
    rows += [("coupled", f"{rho:g}", count(w), cfg.threshold_db)
             for rho, w in zip(cfg.rho, coupled)]
    return [_write_eig_csv(out / "eigs_exact_uncoupled.csv", ev, *refs),
            *_write_coupled_eigs(out, cfg.rho, coupled, refs),
            _write_csv(out / "dof_counts.csv", "curve,rho,count_above_threshold,threshold_db",
                       "%s,%s,%d,%.12g", rows)]


def _run_capacity(cfg: ExperimentConfig, out: Path, workers: int, gt, gr, spectrum,
                  pattern) -> list[str]:
    ev, coupled = exact_spectra(gt, spectrum, pattern, cfg.rho)
    n_rx = gr.n_antennas
    models = [iid_model(n_rx, gt.n_antennas),
              exact_model(ev, n_rx, cfg.normalize, "uncoupled")]
    models += [exact_model(w, n_rx, cfg.normalize, f"coupled rho={rho:g}")
               for rho, w in zip(cfg.rho, coupled)]
    names = ["capacity_iid.csv", "capacity_uncoupled.csv"]
    names += [f"capacity_coupled_rho{rho:g}.csv" for rho in cfg.rho]
    return [_write_capacity_csv(out / name, curve) for name, curve in
            zip(names, ergodic_capacity(models, _snr_grid(cfg), cfg.mc, cfg.seed, workers))]


def _run_coupling_matrix(cfg: ExperimentConfig, out: Path, workers: int, g, rx, spectrum,
                         pattern) -> list[str]:
    base = coupling_general(g, pattern)
    if cfg.rho:
        base = regularize(base, cfg.rho[0])
    write_coupling_csv(base, out / "coupling_matrix.csv")
    return ["coupling_matrix.csv"]


def _run_bound_check(cfg: ExperimentConfig, out: Path, workers: int, gt, gr, spectrum,
                     pattern) -> list[str]:
    model = fourier_model(build_fourier_basis(gr, spectrum),
                          build_fourier_basis(gt, spectrum, pattern))
    payload = dataclasses.asdict(low_snr_bound_check(model, cfg.mc, cfg.seed, workers))
    payload["spectrum"] = spectrum.name
    payload["pattern"] = pattern.name
    return [_write_json(out / "bound_check.json", payload)]


_EXECUTORS = {
    "eigenvalues": _run_eigenvalues,
    "dof-sweep": _run_dof_sweep,
    "capacity": _run_capacity,
    "coupling-matrix": _run_coupling_matrix,
    "bound-check": _run_bound_check,
}


# ---------------------------------------------------------------------------
# commands


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_experiment(cfg: ExperimentConfig, label: str, out_dir: Path,
                   workers: int | None = None) -> dict:
    """Execute one experiment and write outputs plus a manifest; returns it.

    A bad config raises ``_coerce``'s ConfigError before ``out_dir`` is made.

    The Monte-Carlo kinds (capacity, bound-check) run their draws on
    ``workers`` processes with one BLAS thread each, by default one per
    usable CPU; their outputs do not depend on the count.
    """
    cfg, resolved = _coerce(cfg)
    usable = _usable_cpus()
    if workers is None:
        workers = usable
    if workers < 1:
        raise ConfigError(f"workers must be a positive integer, got {workers}")
    if workers > usable:
        raise ConfigError(f"workers must be at most the {usable} usable CPUs, got {workers}")
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    files = _EXECUTORS[cfg.kind](cfg, out_dir, workers, *resolved)
    manifest = {
        "name": label,
        "kind": cfg.kind,
        "config": dataclasses.asdict(cfg),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "holomimo": __version__,
        },
        "seed": cfg.seed,
        # processes the Monte-Carlo pass ran on (never more than one per draw)
        "workers": min(workers, cfg.mc) if cfg.kind in ("capacity", "bound-check") else 0,
        "outputs": files,
        "wall_time_s": round(time.perf_counter() - start, 3),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if cfg.rho and cfg.kind in ("eigenvalues", "dof-sweep", "capacity"):
        # the path exact_spectra took for the coupled spectra
        kappa = coupling_ratio(*resolved[2:])
        manifest["whitening"] = ({"path": "general"} if kappa is None
                                 else {"path": "scalar", "kappa": kappa})
    if cfg.kind == "capacity":
        from . import _lapack

        manifest["mc_solvers"] = _lapack.solvers(min(g.n_antennas for g in resolved[:2]))
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


def _cmd_run(args) -> int:
    cfg, label = load_config(args.config)
    # run_experiment checks the config again with its overrides applied.
    overrides = {k: v for k, v in (("seed", args.seed), ("mc", args.mc)) if v is not None}
    cfg = dataclasses.replace(cfg, **overrides)
    out_dir = Path(args.out_dir) if args.out_dir else Path(cfg.out_dir)
    manifest = run_experiment(cfg, label, out_dir, args.workers)
    for name in manifest["outputs"]:
        print(f"wrote {out_dir / name}")
    print(f"done: {label} ({cfg.kind}) in {manifest['wall_time_s']:.3f} s")
    return 0


def _cmd_validate(args) -> int:
    cfg, label = load_config(args.config)
    _, (tx, rx, _, _) = _coerce(cfg)
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
                       help="Monte-Carlo worker processes, one BLAS thread each "
                            "(default: every usable CPU)")
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
    except MemoryError as exc:
        print(f"out of memory: {exc}; lower mc, the SNR grid or the array size",
              file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
