"""Correlation and coupling kernels over antenna position differences.

R and C are one operator, a density's average of the plane-wave outer product
sum_k w_k exp(i (kx_k dx + ky_k dy)) over all pairwise coordinate differences
(dx, dy), and ``density_kernel`` is the one rule that builds it.  On gridded
arrays the unique differences per axis are few, so every kernel is a table
over their product set (``Grid``) and no N x N matrix is formed; the 2-D rule
fills it by one small matrix product per node chunk.  Irregular arrays take
the N^2 antenna pairs instead.  A density uniform on its polar cap needs no
2-D rule at all: its kernel is a function of the distance, sinc(2 d) on the
whole hemisphere and one Bessel integral in theta on a cap
(``radial_kernel``), taken at the Chebyshev points of [0, d_max] only and
interpolated to every distance, within 1e-13 of the kernel's peak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import _legendre, _uniform_on_cap, quadrature_for

# Decimals (wavelengths) that position differences are grouped at.
_MIRROR_ROUND = 12
# Peak-relative residue up to which two kernels count as equal (``_close``).
_RESIDUE_TOL = 1e-12
# Bytes allowed for a 2-D rule's table or pair matrix and each chunk's buffers.
_BUDGET = 1 << 27
# Plane-wave terms (nodes x antenna pairs) allowed to the 2-D rule off a grid.
_PAIR_TERMS = 1 << 32
# Upper-hemisphere average; also a mirrored density's full-sphere average.
HEMISPHERE = 1.0 / (2.0 * np.pi)


def _axis(coord: np.ndarray):
    """The unique pairwise differences of ``coord``, each antenna's index into
    its unique coordinates, and the index of each coordinate pair's
    difference.  Differences are grouped after rounding to _MIRROR_ROUND
    decimals and represented by an unrounded one, negated across zero so
    that d[::-1] == -d exactly."""
    values, which = np.unique(coord, return_inverse=True)
    diff = values[:, None] - values[None, :]
    _, first, cell = np.unique(np.round(diff, _MIRROR_ROUND).ravel(), return_index=True,
                               return_inverse=True)
    d = diff.ravel()[first]
    half = d.size // 2
    d[:half] = -d[:half:-1]
    return d, which.ravel(), cell.reshape(diff.shape)


@dataclass(frozen=True)
class Grid:
    """An array whose kernels are tables over the unique differences: rows
    hold the x differences ``dx``, columns the y differences ``dy``, and pair
    (n, m) sits at flat cell x_cell[ix[n], ix[m]] + y_cell[iy[n], iy[m]] of
    the row-major table.  Both axes are antisymmetric (``_axis``), so the
    table of M^T is table[::-1, ::-1] and the zero difference is the centre
    cell."""

    dx: np.ndarray
    dy: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    x_cell: np.ndarray
    y_cell: np.ndarray

    @property
    def n_antennas(self) -> int:
        return self.ix.size

    @property
    def origin(self) -> tuple[int, int]:
        """The table cell of the zero difference, which only the diagonal hits."""
        return self.dx.size // 2, self.dy.size // 2

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Flat table indices of the antenna pairs (rows[a], cols[b])."""
        flat = self.x_cell[self.ix[rows]][:, self.ix[cols]]
        flat += self.y_cell[self.iy[rows]][:, self.iy[cols]]
        return flat

    def reflections(self) -> dict[str, np.ndarray]:
        """Index permutations p of the array's reflections, by name: antenna
        p[n] sits at the image of antenna n.  "x" and "y" reverse an axis's
        unique coordinates, which the axis admits when its difference index
        has cell[i, j] == cell[n-1-j, n-1-i]; "diagonal" swaps the axes, which
        needs one difference set and one index on both.  A reflection is left
        out when an image is missing or when it fixes every antenna."""
        nx, ny = self.x_cell.shape[0], self.y_cell.shape[0]
        images = {}
        if np.array_equal(self.x_cell, self.x_cell[::-1, ::-1].T):
            images["x"] = (nx - 1 - self.ix) * ny + self.iy
        if np.array_equal(self.y_cell, self.y_cell[::-1, ::-1].T):
            images["y"] = self.ix * ny + (ny - 1 - self.iy)
        if (np.array_equal(self.x_cell, self.y_cell * self.dy.size)
                and np.abs(self.dx - self.dy).max() <= 10.0 ** -_MIRROR_ROUND):
            images["diagonal"] = self.iy * ny + self.ix
        # each image is found by bisection in the antennas' sorted keys
        key = self.ix * ny + self.iy
        order = np.argsort(key)
        key = key[order]
        perms = {}
        for name, image in images.items():
            at = np.minimum(np.searchsorted(key, image), key.size - 1)
            if np.array_equal(key[at], image) and np.any(order[at] != np.arange(at.size)):
                perms[name] = order[at]
        return perms


def _close(image: np.ndarray, m: np.ndarray) -> bool:
    """Whether ``image`` equals M to within _RESIDUE_TOL of M's peak entry."""
    peak = np.abs(m).max()
    return bool(np.isfinite(peak) and np.abs(image - m).max() <= _RESIDUE_TOL * peak)


def array_grid(positions: np.ndarray) -> Grid | None:
    """The Grid of an array, or None when its table would hold more cells than
    there are antenna pairs (irregular arrays, which then take the pairs), or
    when two distinct coordinates of an axis share the zero difference."""
    (dx, ix, x_cell), (dy, iy, y_cell) = _axis(positions[:, 0]), _axis(positions[:, 1])
    if dx.size * dy.size > positions.shape[0] ** 2:
        return None
    for d, cell in ((dx, x_cell), (dy, y_cell)):
        if np.count_nonzero(cell == d.size // 2) != cell.shape[0]:
            return None
    index = np.int32 if dx.size * dy.size < 2 ** 31 else np.intp
    return Grid(dx, dy, ix, iy, (x_cell * dy.size).astype(index), y_cell.astype(index))


def phase_kernel(positions: np.ndarray, kx: np.ndarray, ky: np.ndarray,
                 weights: np.ndarray, grid: Grid | None) -> np.ndarray:
    """sum_k w_k exp(i k . (r_n - r_m)) for planar r: the table over
    ``grid``'s differences, or without a grid the N x N matrix A diag(w) A^H
    with A[n, k] = exp(i k . r_n), summed over node chunks.

    Raises ValueError when the table or matrix exceeds the memory budget, or
    when the N^2 pairs times the nodes exceed the plane-wave term budget.
    """
    kx = np.asarray(kx, dtype=float).ravel()
    ky = np.asarray(ky, dtype=float).ravel()
    weights = np.asarray(weights, dtype=float).ravel()
    n = positions.shape[0]
    cells = n * n if grid is None else grid.dx.size * grid.dy.size
    if 16 * cells > _BUDGET or (grid is None and kx.size * cells > _PAIR_TERMS):
        raise ValueError(f"the 2-D rule over {cells} antenna pairs or table cells and "
                         f"{kx.size} nodes exceeds its budget; use a gridded geometry, or a "
                         f"density uniform on its polar cap (the radial rule: isotropic, "
                         f"omni, cap and their matched patterns)")
    if grid is None:
        m = np.zeros((n, n), dtype=complex)
        chunk = max(1, _BUDGET // (16 * n))
        for start in range(0, kx.size, chunk):
            sl = slice(start, start + chunk)
            a = np.exp(1j * (np.outer(positions[:, 0], kx[sl])
                             + np.outer(positions[:, 1], ky[sl])))
            m += (a * weights[sl]) @ a.conj().T
        return m
    # Node chunks whose exponential buffers fit the budget too.
    chunk = min(32768, _BUDGET // (16 * max(grid.dx.size, grid.dy.size)))
    table = np.zeros((grid.dx.size, grid.dy.size), dtype=complex)
    for start in range(0, kx.size, chunk):
        sl = slice(start, start + chunk)
        ex = np.exp(1j * np.outer(kx[sl], grid.dx))
        ey = np.exp(1j * np.outer(ky[sl], grid.dy))
        table += (ex * weights[sl, None]).T @ ey
    return table


def _radial_counts(x_max: float) -> tuple[int, int, int]:
    """Gauss-Legendre nodes in theta, midpoint nodes on a quarter period of
    phi, and the degree of the interpolant in distance, for Bessel arguments
    up to x_max, each with a margin over the fewest that reach 1e-14 of the
    peak.  The phi rule's error is of the size of J_{4 n_phi}(x), negligible
    once 4 n_phi > x + 12 x^(1/3); on [0, d_max] the kernel's Chebyshev
    coefficients decay as J_k(x_max / 2), negligible by the same margin."""
    n_theta = int(np.ceil(x_max / 2.0)) + 24
    n_phi = int(np.ceil((x_max + 12.0 * np.cbrt(x_max)) / 4.0)) + 8
    h = 0.5 * x_max
    n_cheb = int(np.ceil(h + 12.0 * np.cbrt(h))) + 8
    return n_theta, n_phi, n_cheb


def _theta_rule(d: np.ndarray, density, scale: float, n_theta: int, n_phi: int) -> np.ndarray:
    """scale * value * 2 pi * integral over [0, theta0] of J0(2 pi d sin
    theta) sin theta at the distances d, for a density of ``value`` on the
    cap theta <= theta0: Gauss-Legendre nodes in theta, and J0 by the
    midpoint rule on a quarter period of phi."""
    theta0 = density.theta0
    t, w = _legendre(n_theta)
    theta = 0.5 * theta0 * (t + 1.0)
    w = np.pi * theta0 * w * np.sin(theta)
    cos_phi = np.cos((np.arange(n_phi) + 0.5) * (0.5 * np.pi / n_phi))
    freq = np.outer(2.0 * np.pi * np.sin(theta), cos_phi).ravel()
    node_w = np.repeat(scale * w * density.evaluator.value / n_phi, n_phi)
    values = np.empty(d.size)
    chunk = max(1, _BUDGET // (8 * freq.size))
    for start in range(0, d.size, chunk):
        arg = np.multiply.outer(d[start:start + chunk], freq)
        np.cos(arg, out=arg)
        values[start:start + chunk] = arg @ node_w
    return values


def _chebyshev_points(n: int, length: float) -> np.ndarray:
    """The n + 1 Chebyshev points of the second kind on [0, length],
    ascending, with 0 and length exact."""
    x = np.sin(0.5 * np.pi * (2.0 * np.arange(n + 1) - n) / n)
    return 0.5 * length * (1.0 + x)


def _barycentric(nodes: np.ndarray, f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through (nodes, f), Chebyshev points of the second
    kind, at x by the second barycentric formula (Berrut & Trefethen, SIAM
    Rev. 46, 2004); an x equal to a node takes its value exactly."""
    w = np.where(np.arange(nodes.size) % 2 == 0, 1.0, -1.0)
    w[[0, -1]] *= 0.5
    out = np.empty(x.size)
    chunk = max(1, _BUDGET // (8 * nodes.size))
    for start in range(0, x.size, chunk):
        c = np.subtract.outer(x[start:start + chunk], nodes)
        row, col = np.nonzero(c == 0.0)
        c[row] = 1.0
        np.divide(w, c, out=c)
        c[row] = 0.0
        c[row, col] = 1.0
        out[start:start + chunk] = (c @ f) / c.sum(axis=1)
    return out


def radial_kernel(dx: np.ndarray, dy: np.ndarray, density, scale: float):
    """scale * upper-hemisphere integral of a density uniform on its polar cap
    (``spectra._uniform_on_cap``) times exp(i k . (r_n - r_m)), real, at the
    differences (dx, dy), which broadcast.

    On the whole hemisphere the integral is value * 2 pi sinc(2 d) in the
    distance d, exactly.  On a cap the phi integral is 2 pi J0(2 pi d sin
    theta), so the kernel is one theta integral in d (Teal, Abhayapala &
    Kennedy, IEEE Signal Process. Lett. 9, 2002), band-limited to 2 pi sin
    theta0.  That rule (``_theta_rule``) runs at the n + 1 Chebyshev points
    of [0, d_max] only, and the kernel at every distinct distance is their
    barycentric interpolant; all counts are sized from x_max = 2 pi d_max
    sin theta0 (``_radial_counts``).  Entries are within 1e-13 of the peak
    of a fine J0 reference; d = 0 and d_max are nodes, so the zero
    difference holds the rule's own integral of the density.  An array with
    no more distinct distances than nodes takes the rule at each one.
    """
    if density.edge is None:
        d = dx * dx + dy * dy
        np.sqrt(d, out=d)
        d *= 2.0
        entries = np.sinc(d)
        entries *= density.evaluator.value * scale / HEMISPHERE
        return entries
    dist = np.hypot(dx, dy)
    d, inverse = np.unique(dist.ravel(), return_inverse=True)
    n_theta, n_phi, n_cheb = _radial_counts(2.0 * np.pi * d[-1] * np.sin(density.theta0))
    if d.size <= n_cheb + 1:
        values = _theta_rule(d, density, scale, n_theta, n_phi)
    else:
        nodes = _chebyshev_points(n_cheb, d[-1])
        values = _barycentric(nodes, _theta_rule(nodes, density, scale, n_theta, n_phi), d)
    return values[inverse].reshape(dist.shape)


def angular_kernel(positions: np.ndarray, density, quadrature, scale: float,
                   grid: Grid | None = None) -> np.ndarray:
    """scale * upper-hemisphere integral of density * exp(i k . (r_n - r_m)):
    the table over ``grid``'s differences, or the N x N matrix without one.

    The result is the Hermitian part H = (M + M^H) / 2, real symmetric when
    its imaginary part is within ``_close`` of zero (every point-symmetric
    density) and complex otherwise.  ``quadrature`` is the (theta, phi,
    weight) triple of ``spectra.hemisphere_quadrature``.
    """
    theta, phi, w = quadrature
    w = w * density(theta, phi) * scale
    kx = 2.0 * np.pi * np.sin(theta) * np.cos(phi)
    ky = 2.0 * np.pi * np.sin(theta) * np.sin(phi)
    m = phase_kernel(positions, kx, ky, w, grid)
    # the kernel of the transposed pairs: the flipped table, or M^T
    mt = m.T if grid is None else m[::-1, ::-1]
    h = 0.5 * (m + mt.conj())
    return h.real.copy() if _close(h.real, h) else h


def density_kernel(positions: np.ndarray, density, scale: float):
    """scale * upper-hemisphere integral of density * exp(i k . (r_n - r_m)).

    The density alone picks the rule: one uniform on its polar cap (every
    built-in one) takes ``radial_kernel``, every other one ``angular_kernel``
    on ``quadrature_for(density)``.  Returns (entries, grid): the table over
    the Grid's differences, or the N x N matrix with grid None on an
    irregular array (``array_grid``).  Either way the zero difference holds
    scale times the rule's integral of the density.
    """
    grid = array_grid(positions)
    if not _uniform_on_cap(density):
        return angular_kernel(positions, density, quadrature_for(density), scale, grid), grid
    if grid is not None:
        dx, dy = grid.dx[:, None], grid.dy[None, :]
    else:
        x, y = positions[:, 0], positions[:, 1]
        dx, dy = np.subtract.outer(x, x), np.subtract.outer(y, y)
    return radial_kernel(dx, dy, density, scale), grid
