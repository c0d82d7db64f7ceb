"""Planar antenna-array geometries.

All lengths are expressed in carrier wavelengths, so a half-wavelength grid
has spacing 0.5 and the wavenumber is 2*pi.
"""

from __future__ import annotations

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

    positions : (N, 3) float array, wavelength units.  Refused when not
    finite, when the z coordinates spread over more than _POSITION_TOL, or
    when two antennas lie closer than _POSITION_TOL in x and in y.
    """

    positions: np.ndarray

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("geometry needs at least one antenna")
        if not np.all(np.isfinite(pos)):
            raise ValueError("antenna positions must be finite")
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

    def content_hash(self) -> str:
        """Short stable hash of the rounded positions, for output headers."""
        import hashlib  # here, not at the top: it loads OpenSSL, and only this header needs it

        rounded = np.round(self.positions / _POSITION_TOL).astype(np.int64)
        return hashlib.sha256(rounded.tobytes()).hexdigest()[:12]


def build_upa(nx: int, ny: int, dx: float, dy: float | None = None) -> ArrayGeometry:
    """Uniform planar array on a corner-origin grid in the z = 0 plane.

    Antennas sit at (ix*dx, iy*dy, 0) for ix < nx, iy < ny, ordered with the
    x index running fastest.  The aperture is the occupied span (nx-1)*dx by
    (ny-1)*dy.
    """
    nx, ny = _config_number("nx", nx, 1), _config_number("ny", ny, 1)
    dx, dy = _config_number("dx", dx), _config_number("dy", dx if dy is None else dy)
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
    return build_upa(_config_number("n", n, 1), 1, _config_number("d", d))


def _is_number(value) -> bool:
    """A finite real number; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _config_number(key: str, value, floor: int | None = None):
    """The one rule for an input number: a finite real as float, or for a
    count (one with a ``floor``) a whole one of at least ``floor`` as int;
    booleans, strings and fractional counts are refused rather than coerced."""
    if _is_number(value) and (floor is None or float(value).is_integer() and value >= floor):
        return float(value) if floor is None else int(value)
    rule = "a finite number" if floor is None else f"an integer >= {floor}"
    raise ValueError(f"{key} must be {rule}, got {value!r}")


def _config_table(name: str, table, known=None, required=()) -> dict:
    """The one rule for a config table: a mapping whose keys are strings, each
    of them ``known`` (any, for None), with every ``required`` key present."""
    if not isinstance(table, dict):
        raise ValueError(f"{name} must be a mapping, got {type(table).__name__}")
    for problem, keys in (("non-string", [k for k in table if not isinstance(k, str)]),
                          ("unknown", set(table) - set(table if known is None else known)),
                          ("missing required", set(required) - set(table))):
        if keys:
            raise ValueError(f"{problem} {name} keys: {', '.join(sorted(map(str, keys)))}")
    return table


def geometry_from_config(cfg: dict) -> ArrayGeometry:
    """Build a geometry from a config table: ``upa`` (the default kind: ``nx``, ``ny``,
    ``dx`` and an optional ``dy``), ``ula`` (``n``, ``d``) or ``points`` (``positions``)."""
    kind = _config_table("geometry", cfg).get("kind", "upa")
    if kind == "upa":
        t = _config_table("geometry", cfg, ("kind", "nx", "ny", "dx", "dy"), ("nx", "ny", "dx"))
        return build_upa(t["nx"], t["ny"], t["dx"], t.get("dy"))
    if kind == "ula":
        t = _config_table("geometry", cfg, ("kind", "n", "d"), ("n", "d"))
        return build_ula(t["n"], t["d"])
    if kind == "points":
        rows = _config_table("geometry", cfg, ("kind", "positions"), ("positions",))["positions"]
        if not isinstance(rows, (list, tuple)):
            raise ValueError(f"positions must be (N, 3), a list of [x, y, z] rows, "
                             f"got {type(rows).__name__}")
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != 3:
                raise ValueError(f"positions must be (N, 3), a list of [x, y, z] rows, "
                                 f"got row {i} = {row!r}")
        return ArrayGeometry(np.array([[_config_number("positions", v) for v in row]
                                       for row in rows]))
    raise ValueError(f"unknown geometry kind {kind!r}")
