"""Waterfilling, ergodic capacity and the low-SNR bound check.

SNR throughout is the total transmit power constraint (identity noise
covariance), so capacities are in bits per channel use and the waterfilling
budget equals the SNR.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .channel import ChannelModel, complex_normal, exact_model, substream
from .geometry import _config_number

__all__ = [
    "CapacityCurve",
    "BoundCheck",
    "ergodic_capacity",
    "low_snr_bound_check",
]


def _check_snr(snr_db) -> np.ndarray:
    """The one SNR rule: a nonempty, nondecreasing grid in dB as a flat float
    array, each point positive and finite once linear (up to about 3083 dB)."""
    grid = np.asarray(snr_db, dtype=float).ravel()
    with np.errstate(over="ignore"):
        lin = 10.0 ** (grid / 10.0)
    if grid.size == 0 or np.any(np.diff(grid) < 0) or not np.all((lin > 0.0) & (lin < np.inf)):
        raise ValueError(f"snr_db must not decrease or be empty, and each point must be "
                         f"positive and finite once linear, got {grid.tolist()}")
    return grid


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _check_workers(workers) -> int:
    """The one worker rule: a count from 1 to the usable CPUs, all of them for None."""
    usable = _usable_cpus()
    n = usable if workers is None else _config_number("workers", workers, 1)
    if n > usable:
        raise ValueError(f"workers must be at most the {usable} usable CPUs, got {workers}")
    return n


def _water_levels(lam_desc: np.ndarray, snr_lin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Active count K = #{k : nu_k > 1/lambda_k} and level nu_K on an SNR grid,
    nu_k = (snr + sum_{i<=k} 1/lambda_i) / k, for a positive, descending spectrum."""
    inv = 1.0 / lam_desc
    cum = np.cumsum(inv)
    counts = np.arange(1, lam_desc.size + 1)
    nu = (snr_lin[:, None] + cum[None, :]) / counts[None, :]
    active = np.count_nonzero(nu > inv[None, :], axis=1)
    return active, nu[np.arange(snr_lin.size), active - 1]


def _capacity_grid(lam_desc: np.ndarray, snr_lin: np.ndarray) -> np.ndarray:
    """Waterfilling capacity for one positive, descending spectrum on a grid."""
    active, level = _water_levels(lam_desc, snr_lin)
    log_lam_cum = np.cumsum(np.log2(lam_desc))
    return active * np.log2(level) + log_lam_cum[active - 1]


@dataclass(frozen=True)
class CapacityCurve:
    """Ergodic capacity versus SNR with Monte-Carlo error bars."""

    snr_db: np.ndarray
    capacity_bits: np.ndarray
    stderr: np.ndarray
    n_mc: int
    label: str = ""


# BLAS thread-count variables set to one while Monte-Carlo workers start.
_ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Substream index offset of the iid law's draws: counter words that no W index reaches.
_LAW_STREAMS = 2**64


def _wishart_eigenvalues(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Descending eigenvalues of W^H W for an m x n W (m >= n) of i.i.d.
    CN(0, 1) entries, drawn from their law without W.

    They are the squared singular values of the upper bidiagonal B with
    diagonal sqrt(chi2_{2(m-i)} / 2) and superdiagonal sqrt(chi2_{2(n-1-i)} / 2)
    (Dumitriu & Edelman, J. Math. Phys. 43, 2002), i.e. the eigenvalues of the
    tridiagonal B^T B; chi2_{2k} / 2 is a Gamma(k, 1) variate.
    """
    sq = rng.standard_gamma(np.concatenate([np.arange(m, m - n, -1), np.arange(n - 1, 0, -1)]))
    d2, e2 = sq[:n], sq[n:]
    diag = d2.copy()
    diag[1:] += e2
    return _lapack.tridiagonal_eigenvalues(diag, np.sqrt(d2[:-1] * e2))[::-1]


@_lapack.one_thread()
def _draw_block(models: Sequence[ChannelModel], seed: int, start: int, stop: int) -> np.ndarray:
    """Draws ``start`` to ``stop - 1`` of a pass: for each, W from substream
    (seed, i) and each model's descending eigenvalues of its smaller-side Gram
    matrix, shape (draws, models, min(n_r, n_t)).

    With the larger side first, H = diag(a_big) W diag(a_small) has Gram
    diag(a_small) W^H diag(a_big^2) W diag(a_small); models that share a_big
    share the inner product.  A wide H is handled as its transpose, whose
    Gram is the complex conjugate of H H^H and has the same eigenvalues.
    Grams of ``_lapack.TWO_STAGE_MIN`` rows and more take the two-stage
    ``zheevd_2stage``.  Every ``iid_model`` instead takes ``_wishart_eigenvalues``
    from substream (seed, ``_LAW_STREAMS`` + i): it does not share W with the
    other models, and a pass of iid models alone draws no W.
    """
    n_r, n_t = models[0].shape
    tall = n_r >= n_t
    sides = [(m.amp_r, m.amp_t) if tall else (m.amp_t, m.amp_r) for m in models]
    white = [m.kind == "iid" for m in models]
    out = np.empty((stop - start, len(models), min(n_r, n_t)))
    for row, i in zip(out, range(start, stop)):
        if any(white):
            row[white] = _wishart_eigenvalues(substream(seed, _LAW_STREAMS + i),
                                              max(n_r, n_t), min(n_r, n_t))
        if all(white):
            continue
        w = complex_normal(substream(seed, i), (n_r, n_t))
        if not tall:
            w = w.T
        inner = {}
        for (big, _), skip in zip(sides, white):
            key = big.tobytes()
            if not skip and key not in inner:
                b = big[:, None] * w
                inner[key] = b.conj().T @ b
                del b
        # the solves need only the inner products: no W or Gram lingers past its use
        del w
        for j, (big, small) in enumerate(sides):
            if not white[j]:
                gram = inner[big.tobytes()] * small[:, None]
                gram *= small[None, :]
                row[j] = _lapack.eigvalsh(gram)[::-1]
                del gram
    return out


def _exit_with_parent() -> None:
    """Worker initializer: a daemon thread ends the worker once its parent
    process is gone, so a killed parent leaves no worker behind."""
    import multiprocessing.connection
    import threading

    sentinel = multiprocessing.parent_process().sentinel

    def watch():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextlib.contextmanager
def _one_blas_thread():
    """Set the BLAS thread variables to one while worker processes start, so each
    worker's numpy loads a one-thread BLAS, whatever the library; the old values come back after."""
    saved = {k: os.environ.get(k) for k in _ONE_THREAD}
    os.environ.update(dict.fromkeys(_ONE_THREAD, "1"))
    try:
        yield
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _mc_pass(models: Sequence[ChannelModel], n_mc: int, seed: int,
             workers: int | None = None) -> np.ndarray:
    """The one Monte-Carlo loop, shape (n_mc, models, min(n_r, n_t)): each draw
    index's W is drawn once and every model's Gram eigenvalues taken on it,
    except the ``iid_model``s', which take their law (``_draw_block``).

    ``workers=None`` runs in this process.  A count splits the indices into
    that many contiguous blocks (at most one per draw), each on a ``spawn``ed
    process that loads its BLAS with one thread, gathered in index order, so
    every count gives the same bits.  In this process ``_lapack.one_thread``
    pins the draws to those bits; without its binding they agree to roundoff.
    A worker exits as soon as this process is gone, even when it is killed
    without cleanup.
    """
    shapes = {m.shape for m in models}
    if len(shapes) != 1:
        raise ValueError("a pass needs models of one shape, got: " + (", ".join(
            f"{m.label!r} {m.shape[0]}x{m.shape[1]}" for m in models) or "no models"))
    n_mc = _config_number("n_mc", n_mc, 1)
    if workers is None:
        return _draw_block(models, seed, 0, n_mc)
    n = min(_check_workers(workers), n_mc)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    edges = [n_mc * k // n for k in range(n + 1)]
    with _one_blas_thread(), ProcessPoolExecutor(
            n, mp_context=multiprocessing.get_context("spawn"),
            initializer=_exit_with_parent) as pool:
        blocks = [pool.submit(_draw_block, models, seed, a, b)
                  for a, b in zip(edges, edges[1:])]
        return np.concatenate([f.result() for f in blocks])


def ergodic_capacity(models: Sequence[ChannelModel], snr_db, n_mc: int = 200,
                     seed: int = 0, workers: int | None = None) -> list[CapacityCurve]:
    """Mean waterfilling capacity, one curve per model, all on the same draws of W
    (common random numbers), which keeps curve crossings statistically stable.

    The exception is an ``iid_model`` curve: it takes its eigenvalues from
    their law (``_wishart_eigenvalues``) on a substream of its own, with no
    dense solve.  So it no longer shares W, and its differences from the
    other curves lose the variance reduction of common random numbers.

    ``workers=None`` draws in this process; a count, up to the usable CPUs,
    runs the draws on that many ``spawn``ed single-thread worker processes,
    so a script that passes it must guard its entry point with
    ``if __name__ == "__main__"``.  Every count, and the in-process draws
    where ``_lapack.one_thread`` pins them, give the same bits.
    """
    snr_db = _check_snr(snr_db)
    snr_lin = 10.0 ** (snr_db / 10.0)
    spectra = _mc_pass(models, n_mc, seed, workers)
    n_mc = len(spectra)
    curves = []
    for j, model in enumerate(models):
        # An all-zero draw carries no information at any SNR.
        c = np.array([_capacity_grid(lam[lam > lam[0] * 1e-30], snr_lin) if lam[0] > 0
                      else np.zeros(snr_lin.size) for lam in spectra[:, j]])
        mean = c.mean(axis=0)
        if np.any(np.diff(mean) < -1e-9):
            raise RuntimeError(f"ergodic capacity {model.label!r} is decreasing in SNR")
        stderr = c.std(axis=0, ddof=1) / np.sqrt(n_mc) if n_mc > 1 else np.zeros_like(mean)
        curves.append(CapacityCurve(snr_db, mean, stderr, n_mc, model.label))
    return curves


@dataclass(frozen=True)
class BoundCheck:
    """Monte-Carlo audit of the top-eigenvalue product bound."""

    lhs_mean: float
    rhs_mean: float
    ratio: float
    holds: bool
    violations: int
    stderr_lhs: float
    n_mc: int


def low_snr_bound_check(model: ChannelModel, n_mc: int = 2000, seed: int = 0,
                        workers: int | None = None) -> BoundCheck:
    """Check E lam_max(H H^H) <= max(N_r sigma_r^2) max(N_t sigma_t^2) E lam_max(W W^H).

    The inequality holds draw by draw (submultiplicativity of the spectral
    norm), so ``holds`` requires every draw to satisfy it as well as the
    means.  It is an equality for a one-cell lattice on each end.  Its white
    side is a unit-spectrum ``exact_model`` on the model's own W (an
    ``iid_model`` takes its law).  ``workers`` is as in ``ergodic_capacity``.
    """
    if model.kind != "fourier":
        raise ValueError("bound check applies to Fourier-model channels")
    top = float((model.amp_r.max() * model.amp_t.max()) ** 2)
    n_r, n_t = model.shape
    tops = _mc_pass([model, exact_model(np.ones(n_t), n_r)], n_mc, seed, workers)[:, :, 0]
    n_mc = len(tops)
    lhs, wtop = tops.T.copy()
    per_draw = lhs <= top * wtop * (1.0 + 1e-12)
    lhs_mean = float(lhs.mean())
    rhs_mean = float(top * wtop.mean())
    # The same relative slack applies to the means: in exact-equality
    # configurations (one-cell lattices) the two sides differ only by roundoff.
    return BoundCheck(
        lhs_mean, rhs_mean, lhs_mean / rhs_mean,
        bool(per_draw.all() and lhs_mean <= rhs_mean * (1.0 + 1e-12)),
        int(np.count_nonzero(~per_draw)),
        float(lhs.std(ddof=1) / np.sqrt(n_mc)) if n_mc > 1 else 0.0, n_mc,
    )
