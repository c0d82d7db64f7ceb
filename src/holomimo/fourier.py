"""Wavenumber lattice, Fourier basis, and per-cell variance integrals.

The propagating wavenumbers of a planar aperture D = diag(Dx, Dy) live on the
unit disk; the Fourier model samples them on the integer lattice points j with
|D^{-1} j| <= 1.  Each lattice point owns a rectangular cell of size
(1/Dx) x (1/Dy) clipped to the disk, and the model variances are integrals of
the angular spectrum (over the pattern, in the coupled flavor) over that cell.

Every cell, interior or rim, takes one polar Gauss-Legendre rule with all its
nodes in one call of the integrand.  The Fourier columns are formed only on
demand (``fourier_matrix``, ``FourierBasis.matrix``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .geometry import ArrayGeometry
from .spectra import (AngularSpectrum, AntennaPattern, isotropic_spectrum, omni_pattern,
                      pattern_covers)

__all__ = [
    "WavenumberLattice",
    "FourierBasis",
    "build_lattice",
    "fourier_matrix",
    "build_fourier_basis",
    "variances_uncoupled",
    "variances_coupled",
    "solid_angles",
    "projected_solid_angles",
    "dof_prime",
    "write_variances_csv",
]

_DISK_TOL = 1e-12
# Gauss-Legendre node counts per integration panel.
_N_R = 24
_N_PHI = 24


@lru_cache(maxsize=64)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


def _gl_ab(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


@dataclass(frozen=True)
class WavenumberLattice:
    """Integer lattice points inside the scaled unit disk.

    Points are ordered by normalized radius |D^{-1} j|, ties broken
    lexicographically in (jx, jy), so exports and variance vectors are stable.
    """

    aperture: np.ndarray  # (Dx, Dy)
    points: np.ndarray  # (n, 2) ints
    radii: np.ndarray  # (n,) normalized radii

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def build_lattice(aperture) -> WavenumberLattice:
    """Lattice for an aperture (Dx, Dy) in wavelengths, or a geometry."""
    if isinstance(aperture, ArrayGeometry):
        d = aperture.aperture_matrix()
    else:
        d = np.asarray(aperture, dtype=float).reshape(2)
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError(f"aperture must be positive and finite, got ({d[0]:g}, {d[1]:g})")
    jx = np.arange(-int(np.ceil(d[0])), int(np.ceil(d[0])) + 1)
    jy = np.arange(-int(np.ceil(d[1])), int(np.ceil(d[1])) + 1)
    gx, gy = np.meshgrid(jx, jy, indexing="ij")
    r = np.hypot(gx / d[0], gy / d[1])
    keep = r <= 1.0 + _DISK_TOL
    pts = np.stack([gx[keep], gy[keep]], axis=1)
    rr = r[keep]
    order = np.lexsort((pts[:, 1], pts[:, 0], rr))
    return WavenumberLattice(d, pts[order], rr[order])


def fourier_matrix(geometry: ArrayGeometry, lattice: WavenumberLattice) -> np.ndarray:
    """N x n matrix of unit-norm Fourier columns exp(i 2 pi x . D^{-1} j) / sqrt(N)."""
    n_ant = geometry.n_antennas
    if n_ant < lattice.n_points:
        warnings.warn(
            f"geometry has {n_ant} antennas but the lattice has {lattice.n_points} "
            f"points; Fourier columns alias", stacklevel=2)
    freq = lattice.points / lattice.aperture  # (n, 2) cycles per wavelength
    phase = 2.0 * np.pi * (geometry.positions[:, :2] @ freq.T)
    return np.exp(1j * phase) / np.sqrt(n_ant)


# ---------------------------------------------------------------------------
# cell integration


def _rect_of(j, d) -> tuple[float, float, float, float]:
    cx, cy = j[0] / d[0], j[1] / d[1]
    hx, hy = 0.5 / d[0], 0.5 / d[1]
    return (cx - hx, cx + hx, cy - hy, cy + hy)


def _rect_minmax_r(rect) -> tuple[float, float]:
    x0, x1, y0, y1 = rect
    rmax = max(np.hypot(x, y) for x in (x0, x1) for y in (y0, y1))
    cx = min(max(0.0, x0), x1)
    cy = min(max(0.0, y0), y1)
    return float(np.hypot(cx, cy)), float(rmax)


def _ray_rect(phi: np.ndarray, rect) -> tuple[np.ndarray, np.ndarray]:
    """Parameter ranges [t0, t1] where the rays from the origin at angles phi
    meet the rect; t1 < t0 where a ray misses it."""
    x0, x1, y0, y1 = rect
    t0, t1 = np.zeros_like(phi), np.full_like(phi, np.inf)
    for lo, hi, d in ((x0, x1, np.cos(phi)), (y0, y1, np.sin(phi))):
        # a ray parallel to these edges lies between them for every t or for none
        free = np.inf if lo <= 0.0 <= hi else -np.inf
        parallel = np.abs(d) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            ta, tb = lo / d, hi / d
        t0 = np.maximum(t0, np.where(parallel, -free, np.minimum(ta, tb)))
        t1 = np.minimum(t1, np.where(parallel, free, np.maximum(ta, tb)))
    return t0, t1


def _circle_edge_angles(rect, r: float) -> list[float]:
    """Angles where the circle of radius r crosses the rectangle boundary."""
    x0, x1, y0, y1 = rect
    out = []
    for xv in (x0, x1):
        if abs(xv) <= r:
            yy = np.sqrt(r * r - xv * xv)
            for yv in (yy, -yy):
                if y0 - 1e-15 <= yv <= y1 + 1e-15:
                    out.append(float(np.arctan2(yv, xv)))
    for yv in (y0, y1):
        if abs(yv) <= r:
            xx = np.sqrt(r * r - yv * yv)
            for xv in (xx, -xx):
                if x0 - 1e-15 <= xv <= x1 + 1e-15:
                    out.append(float(np.arctan2(yv, xv)))
    return out


def _integrate_rect_disk(rect, f, weight: str, break_radii=()) -> float:
    """Integral of f(kx, ky) * w over rect intersected with the unit disk.

    weight "plain" uses w = 1 (area measure dk); "rim" uses w = 1/sqrt(1-|k|^2)
    integrated in the substituted variable u = sqrt(1 - r^2), which is exact at
    the disk boundary.  break_radii split the radial panels where the
    integrand is discontinuous (support edges).  Every node of the cell goes
    through one call of f.
    """
    rmin, rmax = _rect_minmax_r(rect)
    x0, x1, y0, y1 = rect
    breaks = sorted(b for b in break_radii if rmin < b < min(rmax, 1.0))
    # Polar decomposition: angular panels split at every corner and at every
    # circle/edge crossing so each panel has smooth radial limits.
    angs = [float(np.arctan2(cy, cx)) for cx in (x0, x1) for cy in (y0, y1)]
    angs += _circle_edge_angles(rect, 1.0)
    for b in breaks:
        angs += _circle_edge_angles(rect, b)
    if x0 <= 0.0 <= x1 and y0 <= 0.0 <= y1:
        angs += [-np.pi, np.pi]
    else:
        ac = float(np.arctan2(0.5 * (y0 + y1), 0.5 * (x0 + x1)))
        angs = [ac + float(np.arctan2(np.sin(a - ac), np.cos(a - ac))) for a in angs]
    edges = np.unique(angs)
    pa, pb = edges[:-1], edges[1:]
    keep = pb - pa >= 1e-14
    phi, wp = (v.ravel() for v in _gl_ab(_N_PHI, pa[keep, None], pb[keep, None]))
    t0, t1 = _ray_rect(phi, rect)
    t1 = np.clip(t1, 0.0, 1.0)
    t0 = np.minimum(t0, t1)
    # Radial segments (segments, rays, 1) split at every break.  Breaks a ray
    # does not cross, and rays that miss the disk (t0 = t1), give zero-length
    # segments: zero weight, and f is not evaluated there.
    bounds = np.stack([t0, *(np.clip(b, t0, t1) for b in breaks), t1])[..., None]
    ra, rb = bounds[:-1], bounds[1:]
    if weight == "rim":
        ua = np.sqrt(np.maximum(0.0, 1.0 - ra * ra))
        ub = np.sqrt(np.maximum(0.0, 1.0 - rb * rb))
        un, uw = _gl_ab(_N_R, ub, ua)
        r = np.sqrt(np.maximum(0.0, 1.0 - un * un))
    else:
        r, uw = _gl_ab(_N_R, ra, rb)
        uw = uw * r
    w = wp[:, None] * uw
    m = w > 0.0
    kx, ky = r * np.cos(phi)[:, None], r * np.sin(phi)[:, None]
    return float(np.sum(w[m] * f(kx[m], ky[m])))


def _orphan_cells(lattice: WavenumberLattice) -> list[tuple[tuple[int, int], int]]:
    """Complement cells that still clip the disk, mapped to the nearest member.

    The rectangular cells of points just outside the lattice can still overlap
    the disk rim; folding them into the nearest lattice cell makes the cells
    tile the disk exactly, so variance sums close to quadrature accuracy.
    Ties resolve to the earliest point in lattice order.
    """
    member = {(int(a), int(b)) for a, b in lattice.points}
    d = lattice.aperture
    mx, my = int(np.ceil(d[0])) + 1, int(np.ceil(d[1])) + 1
    out = []
    for ax in range(-mx, mx + 1):
        for ay in range(-my, my + 1):
            if (ax, ay) in member:
                continue
            rmin, _ = _rect_minmax_r(_rect_of((ax, ay), d))
            if rmin < 1.0:
                d2 = (lattice.points[:, 0] - ax) ** 2 + (lattice.points[:, 1] - ay) ** 2
                out.append(((ax, ay), int(np.argmin(d2))))
    return out


def _cell_integrals(lattice: WavenumberLattice, f, weight: str, *densities) -> np.ndarray:
    """Cell integrals with a radial break at sin(edge) of every density whose
    support ends inside the disk."""
    d = lattice.aperture
    breaks = sorted({float(np.sin(s.edge)) for s in densities if s.edge is not None})
    vals = np.array([
        _integrate_rect_disk(_rect_of(j, d), f, weight, breaks) for j in lattice.points
    ])
    for j, k in _orphan_cells(lattice):
        vals[k] += _integrate_rect_disk(_rect_of(j, d), f, weight, breaks)
    return vals


def _direction_values(obj, kx, ky) -> np.ndarray:
    r = np.hypot(kx, ky)
    theta = np.arcsin(np.clip(r, 0.0, 1.0))
    phi = np.arctan2(ky, kx)
    return obj(theta, phi)


# ---------------------------------------------------------------------------
# variances


def variances_uncoupled(lattice: WavenumberLattice, spectrum: AngularSpectrum) -> np.ndarray:
    """Per-cell variances (1/2pi) * integral of E(k) dk / sqrt(1 - |k|^2).

    For the isotropic spectrum these are the normalized solid angles of the
    cells and sum to 1.
    """
    f = lambda kx, ky: _direction_values(spectrum, kx, ky)
    return _cell_integrals(lattice, f, "rim", spectrum) / (2.0 * np.pi)


def variances_coupled(lattice: WavenumberLattice, spectrum: AngularSpectrum,
                      pattern: AntennaPattern) -> np.ndarray:
    """Per-cell variances (1/pi) * integral of E(k)/|A(k)|^2 dk.

    Deconvolving the element pattern flattens the rim weight; for the
    isotropic spectrum with omnidirectional elements these are the normalized
    projected solid angles of the cells and sum to 1.
    """
    if not pattern_covers(spectrum, pattern):
        raise ValueError(
            f"pattern {pattern.name!r} vanishes inside the support of spectrum "
            f"{spectrum.name!r}; the deconvolved variance diverges")

    def f(kx, ky):
        e = _direction_values(spectrum, kx, ky)
        out = np.zeros_like(e)
        m = e > 0.0
        if np.any(m):
            a = _direction_values(pattern, kx, ky)
            if np.any(a[m] <= 0.0):
                raise ValueError("pattern vanishes inside the spectrum support")
            out[m] = e[m] / a[m]
        return out

    return _cell_integrals(lattice, f, "plain", spectrum, pattern) / np.pi


def solid_angles(lattice: WavenumberLattice) -> np.ndarray:
    """Normalized solid angles |Omega_j| of the cells (sum to 1)."""
    return variances_uncoupled(lattice, isotropic_spectrum())


def projected_solid_angles(lattice: WavenumberLattice) -> np.ndarray:
    """Normalized projected solid angles |O_j| of the cells (sum to 1)."""
    return variances_coupled(lattice, isotropic_spectrum(), omni_pattern())


def dof_prime(lattice: WavenumberLattice, spectrum: AngularSpectrum) -> int:
    """Effective spatial degrees of freedom under a spectrum's support.

    ceil of the lattice size times the fraction of the wavenumber disk covered
    by the support cap: ceil(n sin^2 theta0), which is n for full support.
    """
    return int(np.ceil(lattice.n_points * np.sin(spectrum.theta0) ** 2 - _DISK_TOL))


def write_variances_csv(lattice: WavenumberLattice, sigma2: np.ndarray, path) -> None:
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape != (lattice.n_points,):
        raise ValueError("variance vector does not match the lattice")
    with open(path, "w", newline="\n") as fh:
        fh.write("jx,jy,sigma2\n")
        for (a, b), v in zip(lattice.points, sigma2):
            fh.write(f"{a},{b},{v:.12g}\n")


# ---------------------------------------------------------------------------
# basis bundle


@dataclass(frozen=True)
class FourierBasis:
    """Lattice and variance vector for one array end; the Fourier columns are
    formed from the geometry on demand."""

    geometry: ArrayGeometry
    lattice: WavenumberLattice
    variances: np.ndarray  # (n,)
    flavor: str  # "uncoupled" | "coupled"
    spectrum: AngularSpectrum

    @property
    def matrix(self) -> np.ndarray:
        """(N, n) Fourier columns, see ``fourier_matrix``."""
        return fourier_matrix(self.geometry, self.lattice)

    @property
    def n_antennas(self) -> int:
        return self.geometry.n_antennas

    @property
    def n_points(self) -> int:
        return self.lattice.n_points

    def model_eigenvalues(self) -> np.ndarray:
        """Eigenvalues N*sigma2 of the model correlation, padded with zeros
        to the antenna count and sorted in decreasing order."""
        ev = np.zeros(max(self.n_antennas, self.n_points))
        ev[: self.n_points] = self.n_antennas * self.variances
        return np.sort(ev)[::-1]


def build_fourier_basis(geometry: ArrayGeometry, spectrum: AngularSpectrum,
                        pattern: AntennaPattern | None = None) -> FourierBasis:
    """Assemble the lattice and variances for one end of the link.

    Without a pattern the variances are the uncoupled (convolution-only) ones;
    with a pattern they are the coupling-deconvolved flavor.
    """
    lat = build_lattice(geometry)
    if pattern is None:
        sig = variances_uncoupled(lat, spectrum)
        flavor = "uncoupled"
    else:
        sig = variances_coupled(lat, spectrum, pattern)
        flavor = "coupled"
    return FourierBasis(geometry, lat, sig, flavor, spectrum)
