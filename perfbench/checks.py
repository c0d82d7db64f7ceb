"""Output checks for benchmark repeats.

Every repeat's output directory is checked three ways:

* physics properties of the paper's acceptance criteria 4-6 (1257 beamspace
  eigenvalues at 41x41 lambda/2, DOF counts that grow as rho falls, exactly
  one capacity crossing per rho);
* agreement with reference values stored in ``reference/<workload>.json``;
* byte-identical output hashes across repeats at one seed (``digest``).

Tolerances admit the equalities ROADMAP allows a change to claim: eigenvalues
and variances to a stated relative tolerance above the roundoff floor, DOF
counts exactly, and capacity in distribution within Monte-Carlo error at any
seed.  They are far tighter than any physical effect the outputs show.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Eigenvalues (peak-normalized, linear) agree to rtol * ref + atol.  atol sits
# at -100 dB: roundoff in whitening with cond(C + rho I) ~ 1e5 stays below it.
EIG_RTOL, EIG_ATOL = 1e-6, 1e-10
# Variances and sums of them (quadrature noise is ~1e-13 relative).
VAR_RTOL = 1e-9
# Capacity: |c - ref| <= CAP_SIGMAS * sqrt(se^2 + se_ref^2), plus print rounding.
CAP_SIGMAS = 5.0
SAMPLES = 129

# Criterion 4: a 41x41 lambda/2 array has exactly 1257 nonzero beamspace
# eigenvalues (lattice points), with and without coupling.
BEAMSPACE = {"eig-iso": 1257}


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def column(path: Path, name: str) -> list[float]:
    header, rows = read_csv(path)
    i = header.index(name)
    return [float(r[i]) for r in rows]


def digest(out_dir: Path, names) -> str:
    """sha256 over the output files' names and bytes (manifest excluded)."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode() + b"\0")
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


def _sample_indices(n: int) -> list[int]:
    if n <= SAMPLES:
        return list(range(n))
    return sorted({round(i * (n - 1) / (SAMPLES - 1)) for i in range(SAMPLES)})


def _close(value: float, ref: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


# ---------------------------------------------------------------------------
# per-file summaries (what the reference stores) and their comparisons


def _eig_summary(path: Path) -> dict:
    lam = [10.0 ** (db / 10.0) for db in column(path, "eig_db_max_normalized")]
    idx = _sample_indices(len(lam))
    return {"rows": len(lam), "samples": [[i, lam[i]] for i in idx],
            "sum": math.fsum(lam), "sumsq": math.fsum(v * v for v in lam)}


def _eig_compare(got: dict, ref: dict) -> list[str]:
    if got["rows"] != ref["rows"]:
        return [f"{got['rows']} eigenvalues, reference has {ref['rows']}"]
    out = []
    values = dict(got["samples"])
    bad = [(i, values[i], v) for i, v in ref["samples"]
           if not _close(values[i], v, EIG_RTOL, EIG_ATOL)]
    if bad:
        i, v, r = bad[0]
        out.append(f"{len(bad)} sampled eigenvalues off reference (index {i + 1}: {v:.9g} vs {r:.9g})")
    n = ref["rows"]
    for key in ("sum", "sumsq"):
        if not _close(got[key], ref[key], EIG_RTOL, n * EIG_ATOL):
            out.append(f"eigenvalue {key} {got[key]:.12g} vs reference {ref[key]:.12g}")
    return out


def _variance_summary(path: Path) -> dict:
    header, rows = read_csv(path)
    points = ";".join(f"{r[0]},{r[1]}" for r in rows)
    sigma2 = [float(r[2]) for r in rows]
    idx = _sample_indices(len(sigma2))
    return {"rows": len(rows), "points_sha256": hashlib.sha256(points.encode()).hexdigest(),
            "samples": [[i, sigma2[i]] for i in idx], "sum": math.fsum(sigma2)}


def _variance_compare(got: dict, ref: dict) -> list[str]:
    if got["rows"] != ref["rows"] or got["points_sha256"] != ref["points_sha256"]:
        return [f"lattice differs from reference ({got['rows']} vs {ref['rows']} cells)"]
    out = []
    values = dict(got["samples"])
    bad = [(i, values[i], v) for i, v in ref["samples"] if not _close(values[i], v, VAR_RTOL, 1e-15)]
    if bad:
        i, v, r = bad[0]
        out.append(f"{len(bad)} sampled variances off reference (row {i + 1}: {v:.12g} vs {r:.12g})")
    if not _close(got["sum"], ref["sum"], VAR_RTOL):
        out.append(f"variance sum {got['sum']:.12g} vs reference {ref['sum']:.12g}")
    return out


def _table_summary(path: Path) -> dict:
    header, rows = read_csv(path)
    return {"header": header, "rows": rows}


def _dof_compare(got: dict, ref: dict) -> list[str]:
    return [] if got == ref else [f"DOF counts {got['rows']} vs reference {ref['rows']}"]


def _capacity_summary(path: Path) -> dict:
    return {key: column(path, key) for key in ("snr_db", "capacity_bits", "stderr", "n_mc")}


def _capacity_compare(got: dict, ref: dict) -> list[str]:
    if got["snr_db"] != ref["snr_db"] or got["n_mc"] != ref["n_mc"]:
        return ["SNR grid or Monte-Carlo budget differs from reference"]
    out = []
    for snr, c, se, c_ref, se_ref in zip(got["snr_db"], got["capacity_bits"], got["stderr"],
                                         ref["capacity_bits"], ref["stderr"]):
        if not (se > 0.0 and math.isfinite(c)):
            out.append(f"{snr:g} dB: capacity {c} with stderr {se}")
        elif abs(c - c_ref) > CAP_SIGMAS * math.hypot(se, se_ref) + 1e-9 * abs(c_ref):
            out.append(f"{snr:g} dB: capacity {c:.6g} vs reference {c_ref:.6g} "
                       f"(> {CAP_SIGMAS:g} combined stderr {math.hypot(se, se_ref):.3g})")
    return out


KINDS = {
    "eigs_": (_eig_summary, _eig_compare),
    "variances_": (_variance_summary, _variance_compare),
    "dof_counts": (_table_summary, _dof_compare),
    "capacity_": (_capacity_summary, _capacity_compare),
}


def _kind(name: str):
    for prefix, funcs in KINDS.items():
        if name.startswith(prefix):
            return funcs
    raise ValueError(f"no check for output {name!r}")


def summarize(out_dir: Path, names) -> dict:
    """Reference summary of one output directory, keyed by file name."""
    return {name: _kind(name)[0](out_dir / name) for name in sorted(names)}


# ---------------------------------------------------------------------------
# physics properties


def _physics(workload: str, out_dir: Path, names: set) -> list[str]:
    out = []
    if workload in BEAMSPACE:
        for name in ("eigs_fourier_uncoupled.csv", "eigs_fourier_coupled.csv"):
            rows = len(column(out_dir / name, "index"))
            if rows != BEAMSPACE[workload]:
                out.append(f"{name}: {rows} beamspace eigenvalues, expected {BEAMSPACE[workload]}")
    if "dof_counts.csv" in names:
        header, rows = read_csv(out_dir / "dof_counts.csv")
        uncoupled = int(rows[0][2])
        coupled = sorted(((float(r[1]), int(r[2])) for r in rows[1:]), reverse=True)
        counts = [c for _, c in coupled]
        if any(c <= uncoupled for c in counts) or counts != sorted(counts):
            out.append(f"DOF counts {counts} (rho falling) do not grow from uncoupled {uncoupled}")
    if "capacity_uncoupled.csv" in names:
        unc = column(out_dir / "capacity_uncoupled.csv", "capacity_bits")
        for name in sorted(n for n in names if n.startswith("capacity_coupled_rho")):
            diff = [a - b for a, b in zip(column(out_dir / name, "capacity_bits"), unc)]
            signs = [d > 0 for d in diff]
            crossings = sum(a != b for a, b in zip(signs, signs[1:]))
            if 0.0 in diff or crossings != 1:
                out.append(f"{name}: {crossings} crossings of the uncoupled curve, expected 1")
    return out


def check(workload: str, out_dir: Path, outputs, reference: dict) -> list[str]:
    """Problems with one repeat's outputs; empty when every check passes."""
    names = set(outputs)
    expected = set(reference["files"])
    problems = []
    if names != expected:
        problems.append(f"outputs {sorted(names ^ expected)} differ from the reference set")
    missing = [n for n in sorted(names | {"manifest.json"}) if not (out_dir / n).is_file()]
    if missing:
        return problems + [f"missing output files {missing}"]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    if manifest.get("outputs") != list(outputs):
        problems.append("manifest outputs differ from the files written")
    try:
        for name in sorted(names & expected):
            summary_fn, compare = _kind(name)
            problems += [f"{name}: {p}" for p in compare(summary_fn(out_dir / name),
                                                        reference["files"][name])]
        problems += _physics(workload, out_dir, names)
    except (ValueError, IndexError, KeyError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
