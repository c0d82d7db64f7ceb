"""Planar antenna-array geometries and free-space constants.

All lengths are expressed in carrier wavelengths, so a half-wavelength grid
has spacing 0.5 and the wavenumber is 2*pi.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhysicalConstants",
    "ArrayGeometry",
    "build_upa",
    "build_ula",
    "geometry_from_config",
    "array_response",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Carrier-scale constants with lengths in wavelengths."""

    wavelength: float = 1.0

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def impedance(self) -> float:
        """Free-space wave impedance in ohms."""
        return 120.0 * np.pi

    @property
    def radiation_resistance(self) -> float:
        """Radiation resistance of the canonical current element."""
        return self.wavenumber**2 * self.impedance / (4.0 * np.pi)


CONSTANTS = PhysicalConstants()

# Tolerance used when checking that positions are distinct and coplanar.
_POSITION_TOL = 1e-9


@dataclass(frozen=True)
class ArrayGeometry:
    """A finite set of antenna positions in a single z plane.

    positions : (N, 3) float array, wavelength units.
    meta : builder provenance, enough to reconstruct via ``geometry_from_config``.
    """

    positions: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        if pos.shape[0] < 1:
            raise ValueError("geometry needs at least one antenna")
        rounded = np.round(pos / _POSITION_TOL) * _POSITION_TOL
        if np.unique(rounded, axis=0).shape[0] != pos.shape[0]:
            raise ValueError("antenna positions must be pairwise distinct")
        if np.ptp(pos[:, 2]) > _POSITION_TOL:
            raise ValueError("antenna positions must lie in a single z plane")
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
                f"aperture {tuple(d)} is degenerate; a two-dimensional aperture is required"
            )
        return d

    def translated(self, offset) -> "ArrayGeometry":
        off = np.asarray(offset, dtype=float).reshape(3)
        meta = dict(self.meta)
        meta["offset"] = [float(v) for v in off + np.asarray(meta.get("offset", (0, 0, 0)))]
        return ArrayGeometry(self.positions + off, meta=meta)

    def to_config(self) -> dict:
        if self.meta.get("kind") in ("upa", "ula"):
            return dict(self.meta)
        return {"kind": "points", "positions": self.positions.tolist()}

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
    meta = {"kind": "upa", "nx": int(nx), "ny": int(ny), "dx": float(dx), "dy": float(dy)}
    return ArrayGeometry(pos, meta=meta)


def build_ula(n: int, d: float) -> ArrayGeometry:
    """Uniform linear array along x in the z = 0 plane."""
    if n < 1:
        raise ValueError("n must be positive")
    if d <= 0:
        raise ValueError("spacing must be positive")
    pos = np.zeros((n, 3))
    pos[:, 0] = np.arange(n) * d
    return ArrayGeometry(pos, meta={"kind": "ula", "n": int(n), "d": float(d)})


def geometry_from_config(cfg: dict) -> ArrayGeometry:
    """Rebuild a geometry from its ``to_config`` mapping (or a CLI table)."""
    cfg = dict(cfg)
    kind = cfg.pop("kind", "upa")
    offset = cfg.pop("offset", None)
    if kind == "upa":
        nx, ny, dx = int(cfg.pop("nx")), int(cfg.pop("ny")), float(cfg.pop("dx"))
        dy = cfg.pop("dy", None)
        g = build_upa(nx, ny, dx, None if dy is None else float(dy))
    elif kind == "ula":
        g = build_ula(int(cfg.pop("n")), float(cfg.pop("d")))
    elif kind == "points":
        g = ArrayGeometry(np.asarray(cfg.pop("positions"), dtype=float))
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    if cfg:
        raise ValueError(f"unknown geometry keys {sorted(cfg)}")
    if offset is not None:
        g = g.translated(offset)
    return g


def array_response(geometry: ArrayGeometry, theta, phi) -> np.ndarray:
    """Plane-wave response exp(i k . r) for arrival direction(s) (theta, phi).

    Returns shape (N,) for scalar angles, else (N,) + broadcast shape.
    """
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    k_hat = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta) * np.ones_like(phi)],
        axis=0,
    )
    phase = CONSTANTS.wavenumber * np.tensordot(geometry.positions, k_hat, axes=(1, 0))
    return np.exp(1j * phase)
