"""Wavenumber lattice, Fourier basis, and per-cell variance integrals.

The propagating wavenumbers of a planar aperture D = diag(Dx, Dy) live on the
unit disk; the Fourier model samples them on the integer lattice points j with
|D^{-1} j| <= 1.  Each lattice point owns a rectangular cell of size
(1/Dx) x (1/Dy) clipped to the disk, and the model variances are integrals of
the angular spectrum (over the pattern, in the coupled flavor) over that cell.

Every density the variances take is uniform on its polar cap, and a
pattern that covers the spectrum is uniform wherever the spectrum is
positive.  So each variance is one constant (the spectrum's value, over the
pattern's in the coupled flavor) times one integral of the weight over the
cell cut to the disk of radius sin(theta0) of the spectrum.  A cell wholly
inside that disk takes a closed form, and a cell wholly outside gives 0;
only the cells its circle cuts take a Gauss-Legendre rule in angle, the
radial integral along each ray being exact.  All cells, the rim cells folded
into their nearest lattice point included, are integrated as arrays.  The
Fourier columns are formed only on demand (``fourier_matrix``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry
from .spectra import AngularSpectrum, AntennaPattern, _check_covers, _legendre, _uniform_on_cap

__all__ = [
    "WavenumberLattice",
    "FourierBasis",
    "build_lattice",
    "fourier_matrix",
    "build_fourier_basis",
    "variances_uncoupled",
    "variances_coupled",
    "write_variances_csv",
]

_DISK_TOL = 1e-12
# Gauss-Legendre nodes per angular panel of a cell.
_N_PHI = 24
# Cut cells integrated in one array pass; bounds the temporaries.
_BLOCK = 128


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
    """Lattice for an aperture (Dx, Dy) in wavelengths, or a geometry's; the
    one refusal of an aperture that is not two-dimensional."""
    if isinstance(aperture, ArrayGeometry):
        aperture = aperture.aperture
    d = np.asarray(aperture, dtype=float).reshape(2)
    if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError(f"aperture ({d[0]:g}, {d[1]:g}) is degenerate: the lattice kinds "
                         f"(eigenvalues, dof-sweep, bound-check) need a two-dimensional array "
                         f"with positive, finite sides")
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


def _cells(lattice: WavenumberLattice) -> tuple[np.ndarray, np.ndarray]:
    """Every cell that meets the disk, as an (m, 4) array of rects
    (x0, x1, y0, y1), and the lattice index each cell adds into.

    The lattice cells come first, in lattice order.  The cells of points just
    outside the lattice can still clip the disk rim; folding each into the
    nearest lattice point (the earliest in lattice order on ties) makes the
    cells tile the disk exactly.  The sums of the area-weighted (coupled)
    variances then close to quadrature accuracy.  Under the rim weight the
    cells inside the unit disk are exact to roundoff, but the angular rule
    misses up to 5e-6 in a cell the rim cuts, and the isotropic sum on a
    (6, 6) aperture closes only to -2.4e-7.
    """
    d = lattice.aperture
    mx, my = int(np.ceil(d[0])) + 1, int(np.ceil(d[1])) + 1
    member = np.zeros((2 * mx + 1, 2 * my + 1), dtype=bool)
    member[lattice.points[:, 0] + mx, lattice.points[:, 1] + my] = True
    gx, gy = np.meshgrid(np.arange(-mx, mx + 1), np.arange(-my, my + 1), indexing="ij")
    outside = np.stack([gx[~member], gy[~member]], axis=1)
    j = np.concatenate([lattice.points, outside])
    c, h = j / d, 0.5 / d
    rects = np.stack([c[:, 0] - h[0], c[:, 0] + h[0], c[:, 1] - h[1], c[:, 1] + h[1]], axis=1)
    n = lattice.n_points
    x0, x1, y0, y1 = rects[n:].T
    orphan = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1)) < 1.0
    (ox, oy), (px, py) = outside[orphan].T, lattice.points.T
    d2 = np.subtract.outer(ox, px) ** 2 + np.subtract.outer(oy, py) ** 2
    keep = np.concatenate([np.ones(n, dtype=bool), orphan])
    return rects[keep], np.concatenate([np.arange(n), np.argmin(d2, axis=1)])


def _ray_rect(phi: np.ndarray, rect) -> tuple[np.ndarray, np.ndarray]:
    """Parameter ranges [t0, t1] where the rays from the origin at angles phi
    meet the rects (each edge a scalar or an array broadcasting against
    phi); t1 < t0 where a ray misses its rect."""
    x0, x1, y0, y1 = rect
    t0, t1 = np.zeros_like(phi), np.full_like(phi, np.inf)
    for lo, hi, d in ((x0, x1, np.cos(phi)), (y0, y1, np.sin(phi))):
        # a ray parallel to these edges lies between them for every t or for none
        free = np.where((lo <= 0.0) & (0.0 <= hi), np.inf, -np.inf)
        parallel = np.abs(d) < 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            ta, tb = lo / d, hi / d
        t0 = np.maximum(t0, np.where(parallel, -free, np.minimum(ta, tb)))
        t1 = np.minimum(t1, np.where(parallel, free, np.maximum(ta, tb)))
    return t0, t1


def _crossings(rects: np.ndarray, r) -> list[np.ndarray]:
    """Angles where the circles of radius r cross the rects' boundaries,
    eight candidates per rect, NaN where a candidate does not exist."""
    x0, x1, y0, y1 = rects.T
    out = []
    for u, lo, hi, swap in ((x0, y0, y1, False), (x1, y0, y1, False),
                            (y0, x0, x1, True), (y1, x0, x1, True)):
        s = np.sqrt(np.maximum(0.0, r * r - u * u))
        for v in (s, -s):
            hit = (np.abs(u) <= r) & (lo - 1e-15 <= v) & (v <= hi + 1e-15)
            out.append(np.where(hit, np.arctan2(u, v) if swap else np.arctan2(v, u), np.nan))
    return out


def _rim_corner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G(X, Y), the integral of 1/sqrt(1-|k|^2) over [0, X] x [0, Y], at
    corners in the closed unit disk.  G is odd in X and in Y, so a rect's
    integral is its four signed corners.

    With Z = sqrt(1-X^2-Y^2), asin(X/sqrt(1-Y^2)) = atan2(X, Z): so written,
    G takes no quotient, and its terms' error in Z cancels to O(Z^2) at the
    circle, where each term alone is steep.
    """
    z = np.sqrt(np.maximum(0.0, 1.0 - x * x - y * y))
    return y * np.arctan2(x, z) + x * np.arctan2(y, z) - np.arctan2(x * y, z)


def _integrate_cut(rects: np.ndarray, weight: str, s: float) -> np.ndarray:
    """The integral of w over each rect cut to the disk |k| <= s, by angle.

    Along each ray the radial integral is exact, against -sqrt(1-r^2) (rim)
    or r^2/2 (plain).  The angles take Gauss-Legendre panels split at every
    corner, at every crossing of the circle r = s, and at +-pi for the rect
    holding the origin.
    """
    x0, x1, y0, y1 = rects.T
    angs = [np.arctan2(y, x) for x in (x0, x1) for y in (y0, y1)]
    angs = np.stack(angs + _crossings(rects, s), axis=1)
    origin = (x0 <= 0.0) & (0.0 <= x1) & (y0 <= 0.0) & (0.0 <= y1)
    # unwrap around the rect's center angle, except where the rect holds the
    # origin and its panels run from -pi to pi
    ac = np.arctan2(0.5 * (y0 + y1), 0.5 * (x0 + x1))[:, None]
    angs = np.where(origin[:, None], angs, ac + np.arctan2(np.sin(angs - ac), np.cos(angs - ac)))
    pm = np.where(origin, np.pi, np.nan)[:, None]
    edges = np.sort(np.concatenate([angs, -pm, pm], axis=1), axis=1)  # NaN last
    pa, pb = edges[:, :-1], edges[:, 1:]
    cell, panel = np.nonzero(pb - pa >= 1e-14)
    pa, pb = pa[cell, panel, None], pb[cell, panel, None]
    nodes, weights = _legendre(_N_PHI)
    phi = 0.5 * (pb - pa) * nodes + 0.5 * (pa + pb)
    wp = 0.5 * (pb - pa) * weights
    ra, rb = _ray_rect(phi, rects[cell].T[..., None])
    rb = np.clip(rb, 0.0, s)
    ra = np.minimum(ra, rb)  # rays that miss the cut disk get zero length
    if weight == "rim":
        w = np.sqrt(np.maximum(0.0, 1.0 - ra * ra)) - np.sqrt(np.maximum(0.0, 1.0 - rb * rb))
    else:
        w = 0.5 * (rb - ra) * (rb + ra)
    return np.bincount(np.broadcast_to(cell[:, None], w.shape).ravel(), (w * wp).ravel(),
                       minlength=len(rects))


def _integrate_cells(rects: np.ndarray, weight: str, s: float, c: float) -> np.ndarray:
    """c times the integral of w over each rect cut to the disk |k| <= s.

    weight "plain" uses w = 1 (area measure dk); "rim" uses w = 1/sqrt(1-|k|^2).
    Each rect is sorted against the circle |k| = s.  A rect wholly inside
    (farthest corner <= s) takes the closed form: its area, or under the rim
    weight its four signed corners of ``_rim_corner``.  A rect wholly outside
    (nearest point >= s) gives 0.  Only the rects the circle cuts take the
    angular rule of ``_integrate_cut``, in blocks of _BLOCK rects to bound
    the temporaries.
    """
    x0, x1, y0, y1 = rects.T
    far = np.hypot(np.maximum(np.abs(x0), np.abs(x1)), np.maximum(np.abs(y0), np.abs(y1)))
    near = np.hypot(np.clip(0.0, x0, x1), np.clip(0.0, y0, y1))
    inside = far <= s
    out = np.zeros(len(rects))
    a0, a1, b0, b1 = rects[inside].T
    if weight == "rim":
        g = _rim_corner(np.stack([a1, a0, a1, a0]), np.stack([b1, b1, b0, b0]))
        out[inside] = g[0] - g[1] - g[2] + g[3]
    else:
        out[inside] = (a1 - a0) * (b1 - b0)
    cut = np.flatnonzero((near < s) & ~inside)
    for i in range(0, len(cut), _BLOCK):
        block = cut[i:i + _BLOCK]
        out[block] = _integrate_cut(rects[block], weight, s)
    return c * out


def _cell_integrals(lattice: WavenumberLattice, weight: str, s: float, c: float) -> np.ndarray:
    """``_integrate_cells`` over every cell, each added into its lattice point."""
    rects, into = _cells(lattice)
    return np.bincount(into, _integrate_cells(rects, weight, s, c), minlength=lattice.n_points)


def _direction_values(obj, kx, ky) -> np.ndarray:
    """A density's values at wavenumbers (kx, ky) of the upper hemisphere.
    Refuses a density not uniform on its polar cap: the cell variances read
    each density once, at the zenith, as the constant of its cap."""
    if not _uniform_on_cap(obj):
        raise ValueError(
            f"density {obj.name!r} is not uniform on its polar cap; the cell variances take "
            f"isotropic_spectrum, omni_pattern, cap_spectrum and their matched_pattern "
            f"copies only (its exact R and C are still built by "
            f"channel.exact_correlation and coupling.coupling_general)")
    r = np.hypot(kx, ky)
    theta = np.arcsin(np.clip(r, 0.0, 1.0))
    phi = np.arctan2(ky, kx)
    return obj(theta, phi)


# ---------------------------------------------------------------------------
# variances


def variances_uncoupled(lattice: WavenumberLattice, spectrum: AngularSpectrum) -> np.ndarray:
    """Per-cell variances (1/2pi) * integral of E(k) dk / sqrt(1 - |k|^2).

    For the isotropic spectrum these are the normalized solid angles of the
    cells and sum to 1.  Refuses a density not uniform on its cap.
    """
    c = float(_direction_values(spectrum, 0.0, 0.0))
    return _cell_integrals(lattice, "rim", np.sin(spectrum.theta0), c) / (2.0 * np.pi)


def variances_coupled(lattice: WavenumberLattice, spectrum: AngularSpectrum,
                      pattern: AntennaPattern) -> np.ndarray:
    """Per-cell variances (1/pi) * integral of E(k)/|A(k)|^2 dk.

    Deconvolving the element pattern flattens the rim weight; for the
    isotropic spectrum with omnidirectional elements these are the normalized
    projected solid angles of the cells and sum to 1.  Refuses a density not
    uniform on its cap, and a pattern that does not cover the spectrum.
    """
    _check_covers(spectrum, pattern)
    c = float(_direction_values(spectrum, 0.0, 0.0) / _direction_values(pattern, 0.0, 0.0))
    return _cell_integrals(lattice, "plain", np.sin(spectrum.theta0), c) / np.pi


def write_variances_csv(lattice: WavenumberLattice, sigma2: np.ndarray, path) -> None:
    sigma2 = np.asarray(sigma2, dtype=float)
    if sigma2.shape != (lattice.n_points,):
        raise ValueError("variance vector does not match the lattice")
    with open(path, "w", newline="\n") as fh:
        fh.write("jx,jy,sigma2\n")
        rows = zip(lattice.points[:, 0].tolist(), lattice.points[:, 1].tolist(), sigma2.tolist())
        fh.writelines("%d,%d,%.12g\n" % row for row in rows)


# ---------------------------------------------------------------------------
# basis bundle


@dataclass(frozen=True)
class FourierBasis:
    """Lattice and variance vector for one array end; its Fourier columns are
    ``fourier_matrix(geometry, lattice)``, formed only by whoever needs them."""

    geometry: ArrayGeometry
    lattice: WavenumberLattice
    variances: np.ndarray  # (n,)
    flavor: str  # "uncoupled" | "coupled"

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
    return FourierBasis(geometry, lat, sig, flavor)
