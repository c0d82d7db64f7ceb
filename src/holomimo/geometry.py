"""Planar antenna-array geometries.

All lengths are expressed in carrier wavelengths, so a half-wavelength grid
has spacing 0.5 and the wavenumber is 2*pi.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ArrayGeometry",
    "build_upa",
    "build_ula",
    "geometry_from_config",
]


# Tolerance used when checking that positions are distinct and coplanar.
_POSITION_TOL = 1e-9


def _has_close_pair(xy: np.ndarray, tol: float) -> bool:
    """Whether two points lie closer than tol in x and in y.

    Each axis is cut into cells of side 2 tol twice, the second cut offset
    by tol, and a pair that close shares a cell under one of the four pairs
    of cuts wherever the cell edges fall.  Only points sharing a cell are
    compared, each against the next three of its cell in sorted order: four
    points pairwise at least tol apart fill a cell, so a fifth is closer than
    tol to one of them.
    """
    for shift in ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)):
        keys = np.floor(xy / (2.0 * tol) + shift)
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        keys, pts = keys[order], xy[order]
        for step in range(1, 5):
            same = np.all(keys[step:] == keys[:-step], axis=1)
            if not same.any():
                break
            if step == 4 or np.any(same & np.all(np.abs(pts[step:] - pts[:-step]) < tol, axis=1)):
                return True
    return False


@dataclass(frozen=True)
class ArrayGeometry:
    """A finite set of antenna positions in a single z plane.

    positions : (N, 3) float array, wavelength units.  Refused when the z
    coordinates spread over more than _POSITION_TOL, or when two antennas lie
    closer than _POSITION_TOL in x and in y.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("geometry needs at least one antenna")
        if np.ptp(pos[:, 2]) > _POSITION_TOL:
            raise ValueError("antenna positions must lie in a single z plane")
        if _has_close_pair(pos[:, :2], _POSITION_TOL):
            raise ValueError("antenna positions must be pairwise distinct")
        object.__setattr__(self, "positions", pos)

    @property
    def n_antennas(self) -> int:
        return self.positions.shape[0]

    @property
    def aperture(self) -> tuple[float, float]:
        """Side lengths (Lx, Ly) of the bounding box, wavelength units."""
        return (float(np.ptp(self.positions[:, 0])), float(np.ptp(self.positions[:, 1])))

    def aperture_matrix(self) -> np.ndarray:
        """Diagonal (Dx, Dy) of the aperture, for wavenumber-lattice builds.

        Raises if either side is degenerate: the planar lattice construction
        needs an invertible aperture matrix, so line arrays are rejected here.
        """
        d = np.array(self.aperture, dtype=float)
        if np.any(d <= 0.0):
            raise ValueError(
                f"aperture ({d[0]:g}, {d[1]:g}) is degenerate; a two-dimensional aperture "
                f"is required"
            )
        return d

    def translated(self, offset) -> "ArrayGeometry":
        return ArrayGeometry(self.positions + np.asarray(offset, dtype=float).reshape(3))

    def content_hash(self) -> str:
        """Short stable hash of the rounded positions, for output headers."""
        rounded = np.round(self.positions / _POSITION_TOL).astype(np.int64)
        return hashlib.sha256(rounded.tobytes()).hexdigest()[:12]


def build_upa(nx: int, ny: int, dx: float, dy: float | None = None) -> ArrayGeometry:
    """Uniform planar array on a corner-origin grid in the z = 0 plane.

    Antennas sit at (ix*dx, iy*dy, 0) for ix < nx, iy < ny, ordered with the
    x index running fastest.  The aperture is the occupied span (nx-1)*dx by
    (ny-1)*dy.
    """
    if dy is None:
        dy = dx
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be positive")
    if dx <= 0 or dy <= 0:
        raise ValueError("spacings must be positive")
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    pos = np.zeros((nx * ny, 3))
    pos[:, 0] = ix.ravel() * dx
    pos[:, 1] = iy.ravel() * dy
    return ArrayGeometry(pos)


def build_ula(n: int, d: float) -> ArrayGeometry:
    """Uniform linear array along x in the z = 0 plane: the one-row grid
    ``build_upa(n, 1, d)``."""
    return build_upa(n, 1, d)


def _is_number(value) -> bool:
    """A finite real number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _config_number(key: str, value, integral: bool = False):
    """The one rule for an input number: a finite real as float, or for a
    count (``integral``) a whole one as int; booleans, strings and fractional
    counts are refused rather than coerced."""
    if not (_is_number(value) and (not integral or float(value).is_integer())):
        raise ValueError(f"{key} must be {'an integer' if integral else 'a finite number'}, "
                         f"got {value!r}")
    return int(value) if integral else float(value)


def geometry_from_config(cfg: dict) -> ArrayGeometry:
    """Build a geometry from a config table: ``upa`` (the default kind), ``ula``
    or ``points``, with an optional ``offset``."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", "upa")
    offset = cfg.pop("offset", None)
    if kind == "upa":
        nx, ny = (_config_number(k, cfg.pop(k), integral=True) for k in ("nx", "ny"))
        dx, dy = _config_number("dx", cfg.pop("dx")), cfg.pop("dy", None)
        g = build_upa(nx, ny, dx, None if dy is None else _config_number("dy", dy))
    elif kind == "ula":
        g = build_ula(_config_number("n", cfg.pop("n"), integral=True),
                      _config_number("d", cfg.pop("d")))
    elif kind == "points":
        g = ArrayGeometry(np.array([[_config_number("positions", v) for v in row]
                                    for row in cfg.pop("positions")]))
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    if cfg:
        raise ValueError(f"unknown geometry keys {sorted(cfg)}")
    if offset is not None:
        g = g.translated([_config_number("offset", v) for v in offset])
    return g
