"""Correlation and coupling kernels over antenna position differences.

R and C are one operator, a density's average of the plane-wave outer product
sum_k w_k exp(i (kx_k dx + ky_k dy)) over all pairwise coordinate differences
(dx, dy), and ``density_kernel`` is the one rule that builds it.  On gridded
arrays the unique differences per axis are few, so the sum runs on their
product set, one small matrix product per node chunk, and is scattered back.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import cdist

from .spectra import _unit, quadrature_for

# Differences are grouped after rounding to this many decimals (wavelengths).
_ROUND = 12
# Relative imaginary / asymmetric residue treated as quadrature noise.
_RESIDUE_TOL = 1e-6
# Bytes allowed for the unique-difference table and each chunk's buffers.
_BUDGET = 1 << 27
# Upper-hemisphere average; also a mirrored density's full-sphere average.
HEMISPHERE = 1.0 / (2.0 * np.pi)


def _unique_differences(coord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = np.round(coord[:, None] - coord[None, :], _ROUND)
    uniq, inverse = np.unique(diff.ravel(), return_inverse=True)
    return uniq, inverse.reshape(diff.shape)


def phase_kernel(positions: np.ndarray, kx: np.ndarray, ky: np.ndarray,
                 weights: np.ndarray) -> np.ndarray:
    """N x N matrix M[n, m] = sum_k w_k exp(i k . (r_n - r_m)) for planar r.

    Raises ValueError when the unique-difference table exceeds the memory
    budget: irregular arrays have up to N^2 differences per axis.
    """
    ux, ix = _unique_differences(positions[:, 0])
    uy, iy = _unique_differences(positions[:, 1])
    if 16 * ux.size * uy.size > _BUDGET:
        raise ValueError(f"{ux.size} x {uy.size} unique position differences exceed the "
                         f"{_BUDGET >> 20} MiB phase-table budget; use a gridded geometry, or "
                         f"the isotropic spectrum with omni elements (closed-form sinc)")
    # Node chunks whose exponential buffers fit the budget too.
    chunk = min(32768, _BUDGET // (16 * max(ux.size, uy.size)))
    table = np.zeros((ux.size, uy.size), dtype=complex)
    kx = np.asarray(kx, dtype=float).ravel()
    ky = np.asarray(ky, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    for start in range(0, kx.size, chunk):
        sl = slice(start, start + chunk)
        ex = np.exp(1j * np.outer(kx[sl], ux))
        ey = np.exp(1j * np.outer(ky[sl], uy))
        table += (ex * weights[sl, None]).T @ ey
    return table[ix, iy]


def sinc_kernel(positions: np.ndarray) -> np.ndarray:
    """sinc(2 d) in the pairwise distances: the full-sphere average of the
    plane-wave outer product under a unit density."""
    d = cdist(positions, positions)
    return np.sinc(2.0 * d)


def angular_kernel(positions: np.ndarray, density, quadrature, scale: float) -> np.ndarray:
    """scale * upper-hemisphere integral of density * exp(i k . (r_n - r_m)).

    The result is real symmetric when its imaginary and asymmetric residue is
    at quadrature-noise level (every point-symmetric density), and complex
    Hermitian otherwise.
    """
    theta, phi = quadrature.grids()
    w = quadrature.weights() * density(theta, phi) * scale
    kx = 2.0 * np.pi * np.sin(theta) * np.cos(phi)
    ky = 2.0 * np.pi * np.sin(theta) * np.sin(phi)
    m = phase_kernel(positions, kx, ky, w)
    residue = max(np.abs(m.imag).max(), 0.5 * np.abs(m - m.T).max())
    if residue <= _RESIDUE_TOL * max(np.abs(m).max(), 1.0):
        return 0.5 * (m.real + m.real.T)
    return 0.5 * (m + m.conj().T)


def density_kernel(positions: np.ndarray, density, scale: float, quadrature=None):
    """scale * upper-hemisphere integral of density * exp(i k . (r_n - r_m)).

    The mirrored full-support unit density at scale ``HEMISPHERE`` takes
    ``sinc_kernel`` and builds no quadrature; every other density takes
    ``angular_kernel`` on ``quadrature`` (default ``quadrature_for(density)``).
    Returns the matrix and the quadrature used, None for the closed form.
    """
    if (density.evaluator is _unit and density.support.kind == "full"
            and density.lower == "mirror" and scale == HEMISPHERE):
        return sinc_kernel(positions), None
    q = quadrature if quadrature is not None else quadrature_for(density)
    return angular_kernel(positions, density, q, scale), q
