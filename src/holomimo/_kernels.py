"""Correlation and coupling kernels over antenna position differences.

R and C are one operator, a density's average of the plane-wave outer product
sum_k w_k exp(i (kx_k dx + ky_k dy)) over all pairwise coordinate differences
(dx, dy), and ``density_kernel`` is the one rule that builds it.  On gridded
arrays the unique differences per axis are few, so the sum runs on their
product set, one small matrix product per node chunk, and is scattered back.
A density of theta alone needs no phi nodes at all: its kernel is a function
of the distance, one Bessel integral in theta (``radial_kernel``).
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import _MIRROR_ROUND
from .spectra import _unit, quadrature_for

# Relative imaginary / asymmetric residue treated as quadrature noise.
_RESIDUE_TOL = 1e-6
# Bytes allowed for the unique-difference table and each chunk's buffers.
_BUDGET = 1 << 27
# Upper-hemisphere average; also a mirrored density's full-sphere average.
HEMISPHERE = 1.0 / (2.0 * np.pi)


def _unique_differences(coord: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unique rounded pairwise differences of ``coord`` and the N x N
    index into them, formed among the unique coordinates (few on a grid)."""
    values, which = np.unique(coord, return_inverse=True)
    diff = np.round(values[:, None] - values[None, :], _MIRROR_ROUND)
    uniq, inverse = np.unique(diff.ravel(), return_inverse=True)
    return uniq, inverse.reshape(diff.shape)[which[:, None], which[None, :]]


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
                         f"{_BUDGET >> 20} MiB phase-table budget; use a gridded geometry, "
                         f"a density of theta alone (axisymmetric, the radial rule), or "
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
    plane-wave outer product under a unit density.  The distances are planar,
    like every kernel here, and are built in place in one N x N buffer beside
    one for the y differences."""
    x, y = positions[:, 0], positions[:, 1]
    d = np.subtract.outer(x, x)
    d *= d
    dy = np.subtract.outer(y, y)
    dy *= dy
    d += dy
    del dy
    np.sqrt(d, out=d)
    d *= 2.0
    return np.sinc(d)


def _radial_counts(x_max: float) -> tuple[int, int]:
    """Gauss-Legendre nodes in theta and midpoint nodes on a quarter period of
    phi for Bessel arguments up to x_max, with a margin over the fewest that
    reach 1e-14 of the peak.  The phi rule's error is of the size of
    J_{4 n_phi}(x), negligible once 4 n_phi > x + 12 x^(1/3)."""
    n_theta = int(np.ceil(x_max / 2.0)) + 24
    n_phi = int(np.ceil((x_max + 12.0 * np.cbrt(x_max)) / 4.0)) + 8
    return n_theta, n_phi


def radial_kernel(positions: np.ndarray, density, scale: float):
    """scale * upper-hemisphere integral of an axisymmetric density (one of
    theta alone) times exp(i k . (r_n - r_m)), as a real symmetric matrix.

    The phi integral is 2 pi J0(2 pi d sin theta) in the distance d, so each
    entry is one theta integral (Teal, Abhayapala & Kennedy, IEEE Signal
    Process. Lett. 9, 2002): Gauss-Legendre nodes on the support [0, theta0],
    and J0 by the midpoint rule on a quarter period of phi, both sized from
    x_max = 2 pi d_max sin theta0 to stay at roundoff.  The distances are
    those of the unique (dx, dy) pairs, gathered back like ``phase_kernel``'s
    table, or of the N^2 unrounded antenna pairs when those are fewer
    (irregular arrays); equal distances are grouped exactly, never after
    rounding.  Returns the matrix and the theta rule as a (theta, 0,
    2 pi weight) triple.
    """
    x, y = positions[:, 0], positions[:, 1]
    ux, ix = _unique_differences(x)
    uy, iy = _unique_differences(y)
    grid = ux.size * uy.size <= x.size ** 2
    if grid:
        dist = np.hypot.outer(ux, uy)
    else:
        dist = np.hypot(np.subtract.outer(x, x), np.subtract.outer(y, y))
    d, inverse = np.unique(dist.ravel(), return_inverse=True)
    theta0 = density.theta0
    n_theta, n_phi = _radial_counts(2.0 * np.pi * d[-1] * np.sin(theta0))
    t, w = leggauss(n_theta)
    theta = 0.5 * theta0 * (t + 1.0)
    w = np.pi * theta0 * w * np.sin(theta)
    phi = np.zeros_like(theta)
    cos_phi = np.cos((np.arange(n_phi) + 0.5) * (0.5 * np.pi / n_phi))
    freq = np.outer(2.0 * np.pi * np.sin(theta), cos_phi).ravel()
    node_w = np.repeat(scale * w * density(theta, phi) / n_phi, n_phi)
    values = np.empty(d.size)
    chunk = max(1, _BUDGET // (8 * freq.size))
    for start in range(0, d.size, chunk):
        arg = np.multiply.outer(d[start:start + chunk], freq)
        np.cos(arg, out=arg)
        values[start:start + chunk] = arg @ node_w
    table = values[inverse].reshape(dist.shape)
    return (table[ix, iy] if grid else table), (theta, phi, w)


def angular_kernel(positions: np.ndarray, density, quadrature, scale: float) -> np.ndarray:
    """scale * upper-hemisphere integral of density * exp(i k . (r_n - r_m)).

    The result is real symmetric when its imaginary and asymmetric residue is
    at quadrature-noise level (every point-symmetric density), and complex
    Hermitian otherwise.  ``quadrature`` is the (theta, phi, weight) triple of
    ``spectra.hemisphere_quadrature``.
    """
    theta, phi, w = quadrature
    w = w * density(theta, phi) * scale
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
    ``sinc_kernel`` and builds no quadrature.  Without an explicit
    ``quadrature``, a density declared ``axisymmetric`` (every built-in one)
    takes ``radial_kernel``.  Every other density, and any density given a
    ``quadrature``, takes ``angular_kernel`` on the 2-D product rule (default
    ``quadrature_for(density)``).  Returns the matrix and the rule used, a
    (theta, phi, weight) triple, or None for the closed form.
    """
    if (density.evaluator is _unit and density.edge is None
            and density.lower == "mirror" and scale == HEMISPHERE):
        return sinc_kernel(positions), None
    if quadrature is None and density.axisymmetric:
        return radial_kernel(positions, density, scale)
    q = quadrature if quadrature is not None else quadrature_for(density)
    return angular_kernel(positions, density, q, scale), q
