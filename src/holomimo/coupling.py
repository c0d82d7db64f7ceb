"""Mutual-coupling matrices for dense planar arrays.

The coupling matrix is the full-sphere average of the element power pattern
against the plane-wave outer product: the correlation's operator with the
pattern as density.  Omnidirectional elements give sinc(2 d) in the pairwise
distances d (in wavelengths); other patterns take the hemisphere quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._kernels import density_kernel
from .geometry import ArrayGeometry
from .spectra import AntennaPattern, HemisphereQuadrature, check_normalization, omni_pattern

__all__ = [
    "CouplingMatrix",
    "SingularCouplingError",
    "coupling_closed_form",
    "coupling_general",
    "regularize",
    "spd_sqrt",
    "spd_inv_sqrt",
    "write_coupling_csv",
]

# Eigenvalue floor below which the inverse square root refuses to proceed.
EIGENVALUE_FLOOR = 1e-12


class SingularCouplingError(RuntimeError):
    """Raised when a coupling matrix is numerically singular for inversion."""


@dataclass(frozen=True)
class CouplingMatrix:
    """Real symmetric N x N coupling matrix with its provenance.

    ``rho`` records the total diagonal loading applied so far (0 means raw).
    """

    matrix: np.ndarray
    geometry: ArrayGeometry
    rho: float = 0.0
    kind: str = "closed-form"

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]


def coupling_closed_form(geometry: ArrayGeometry) -> CouplingMatrix:
    """sinc(2 d) coupling for lossless omnidirectional elements."""
    return coupling_general(geometry, omni_pattern())


def coupling_general(geometry: ArrayGeometry, pattern: AntennaPattern,
                     quadrature: HemisphereQuadrature | None = None) -> CouplingMatrix:
    """Coupling for an arbitrary normalized element power pattern.

    Full-sphere average (1/4pi) of |A|^2 times the plane-wave outer product.
    The omni pattern (and a pattern matched to the isotropic spectrum) takes
    the closed form and ignores ``quadrature``.  Any other pattern must be
    normalized; the result is symmetrized after checking that the asymmetry
    and imaginary residue are at quadrature-noise level.
    """
    # Planar arrays have no z offsets, so a mirrored lower hemisphere shares
    # the upper one's in-plane phases and doubles its weight.
    hemispheres = 2.0 if pattern.lower == "mirror" else 1.0
    m, q = density_kernel(geometry.positions, pattern, hemispheres / (4.0 * np.pi), quadrature)
    if q is None:
        return CouplingMatrix(m, geometry, kind="closed-form")
    norm = check_normalization(pattern, q)
    if abs(norm - 1.0) > 1e-3:
        raise ValueError(f"pattern {pattern.name!r} is not normalized (average {norm:.6f})")
    if np.iscomplexobj(m):
        residue = np.abs(m.imag).max()
        raise RuntimeError(f"coupling quadrature residue {residue:.3e} exceeds tolerance")
    return CouplingMatrix(m, geometry, kind=f"general({pattern.name})")


def regularize(coupling: CouplingMatrix, rho: float) -> CouplingMatrix:
    """Diagonal loading: C + rho * I, accumulating rho in the provenance."""
    if rho < 0.0:
        raise ValueError("rho must be nonnegative")
    m = coupling.matrix + rho * np.eye(coupling.n_antennas)
    return replace(coupling, matrix=m, rho=coupling.rho + rho)


def _check_floor(eigmin: float, rho: float, floor: float = EIGENVALUE_FLOOR) -> None:
    """Refuse to invert a coupling matrix whose smallest eigenvalue is at the floor."""
    if eigmin <= floor:
        raise SingularCouplingError(
            f"coupling matrix is numerically singular: smallest eigenvalue "
            f"{eigmin:.6e} <= floor {floor:.0e} (current rho={rho:g}); "
            f"increase the regularization rho"
        )


def _as_hermitian(coupling) -> np.ndarray:
    m = coupling.matrix if isinstance(coupling, CouplingMatrix) else np.asarray(coupling)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


def spd_sqrt(coupling) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Roundoff-scale negative eigenvalues are clipped to zero; a significantly
    indefinite input raises.
    """
    h = _as_hermitian(coupling)
    w, v = np.linalg.eigh(h)
    if w[0] < -1e-8 * max(w[-1], 1.0):
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {w[0]:.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def spd_inv_sqrt(coupling, floor: float = EIGENVALUE_FLOOR) -> np.ndarray:
    """Hermitian inverse square root; refuses numerically singular input."""
    h = _as_hermitian(coupling)
    rho = coupling.rho if isinstance(coupling, CouplingMatrix) else 0.0
    w, v = np.linalg.eigh(h)
    _check_floor(w[0], rho, floor)
    return (v / np.sqrt(w)) @ v.conj().T


def write_coupling_csv(coupling: CouplingMatrix, path) -> None:
    """Dense (row, col, value) export with a provenance header."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# n_antennas={coupling.n_antennas}\n")
        fh.write(f"# rho={coupling.rho:.12g}\n")
        fh.write(f"# kind={coupling.kind}\n")
        fh.write(f"# geometry={coupling.geometry.content_hash()}\n")
        fh.write("row,col,value\n")
        m = coupling.matrix
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                fh.write(f"{i},{j},{m[i, j]:.12g}\n")
