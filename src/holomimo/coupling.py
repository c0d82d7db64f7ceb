"""Mutual-coupling matrices for dense planar arrays.

The coupling matrix is the full-sphere average of the element power pattern
against the plane-wave outer product: the correlation's operator with the
pattern as density.  Omnidirectional elements give sinc(2 d) in the pairwise
distances d (in wavelengths); other patterns take the hemisphere quadrature.

A matrix that commutes with the array's mirror reflections splits into
reflection-symmetry sectors (Cantoni & Butler, Linear Algebra Appl. 13,
1976), each solved on its own; ``symmetry_sectors`` finds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._kernels import density_kernel
from .geometry import ArrayGeometry, mirror_permutations
from .spectra import AntennaPattern, check_normalization, omni_pattern

__all__ = [
    "CouplingMatrix",
    "Sector",
    "SingularCouplingError",
    "coupling_closed_form",
    "coupling_general",
    "regularize",
    "spd_sqrt",
    "spd_inv_sqrt",
    "symmetry_sectors",
    "write_coupling_csv",
]

# Eigenvalue floor below which the inverse square root refuses to proceed.
EIGENVALUE_FLOOR = 1e-12
# Peak-relative residue up to which a matrix counts as commuting with a reflection.
_COMMUTE_TOL = 1e-12


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
                     quadrature=None) -> CouplingMatrix:
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
    if not 0.0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")
    m = coupling.matrix + rho * np.eye(coupling.n_antennas)
    return replace(coupling, matrix=m, rho=coupling.rho + rho)


def _check_floor(eigmin: float, rho: float) -> None:
    """Refuse to invert a coupling matrix whose smallest eigenvalue is at the
    floor, or that is not finite (no regularization repairs that)."""
    if not np.isfinite(eigmin):
        raise ValueError(f"coupling matrix is not finite: smallest eigenvalue {eigmin} "
                         f"(rho={rho:g}); check the input for NaN or inf entries")
    if not eigmin > EIGENVALUE_FLOOR:
        raise SingularCouplingError(
            f"coupling matrix is numerically singular: smallest eigenvalue "
            f"{eigmin:.6e} <= floor {EIGENVALUE_FLOOR:.0e} (current rho={rho:g}); "
            f"increase the regularization rho"
        )


def _eigh(coupling) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and eigenvectors V of a coupling matrix or a
    square array, C = V diag(w) V^H; only the lower triangle is read."""
    m = coupling.matrix if isinstance(coupling, CouplingMatrix) else np.asarray(coupling)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return np.linalg.eigh(m)


@dataclass(frozen=True)
class Sector:
    """One reflection-symmetry sector of the group G of mirror permutations.

    For a character chi of G, the basis vectors are
    q_r = sum_k chi(k) e_{k(r)} / sqrt(|G| |Stab(r)|) for the orbit
    representatives r on whose stabilizer chi is trivial.  ``rows`` holds
    those r; ``images[k]`` their images k(r), identity first; ``signs[k]``
    is chi(k); ``scale`` is 1 / sqrt(|Stab(r)|).
    """

    rows: np.ndarray
    images: np.ndarray
    signs: np.ndarray
    scale: np.ndarray

    def block(self, m: np.ndarray) -> np.ndarray:
        """Q^T M Q for a matrix M that commutes with G, by gathers alone:
        B[a, b] = sum_k chi(k) M[r_a, k(r_b)] / sqrt(|Stab(r_a)| |Stab(r_b)|)."""
        b = m[np.ix_(self.rows, self.images[0])]
        for sign, image in zip(self.signs[1:], self.images[1:]):
            if sign > 0:
                b += m[np.ix_(self.rows, image)]
            else:
                b -= m[np.ix_(self.rows, image)]
        b *= self.scale[:, None]
        b *= self.scale[None, :]
        return b


def _commutes(m: np.ndarray, perm: np.ndarray) -> bool:
    """Whether M[p, p] equals M to within _COMMUTE_TOL of its peak entry."""
    peak = np.abs(m).max()
    if not np.isfinite(peak):
        return False
    d = m.take(perm, axis=0).take(perm, axis=1)
    d -= m
    return bool(np.abs(d).max() <= _COMMUTE_TOL * peak)


def symmetry_sectors(geometry: ArrayGeometry | None, *matrices: np.ndarray) -> list[Sector]:
    """The reflection-symmetry sectors shared by ``matrices`` on ``geometry``.

    A mirror reflection of the array (``mirror_permutations``) joins the
    group only if every matrix commutes with it.  Each character of the
    group gives one sector; empty sectors are left out.  Without a geometry
    or a shared reflection this is one sector: the whole matrix in the
    identity basis.
    """
    n = matrices[0].shape[0]
    perms = []
    if geometry is not None and geometry.n_antennas == n:
        perms = [p for p in mirror_permutations(geometry)
                 if all(_commutes(m, p) for m in matrices)]
    # Element j of G composes the generators whose bits are set in j.
    images = [np.arange(n)]
    for p in perms:
        images += [image[p] for image in images]
    images = np.stack(images)
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    stab = images[:, reps] == reps
    scale = 1.0 / np.sqrt(stab.sum(axis=0))
    sectors = []
    for chi in range(len(images)):
        # chi(j) = -1 when j holds an odd number of the generators chi negates.
        signs = np.array([-1.0 if bin(j & chi).count("1") % 2 else 1.0
                          for j in range(len(images))])
        # a representative stays when chi is trivial on its stabilizer
        keep = np.all(stab <= (signs[:, None] > 0), axis=0)
        if keep.any():
            rows = reps[keep]
            sectors.append(Sector(rows, images[:, rows], signs, scale[keep]))
    return sectors


def spd_sqrt(coupling) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Roundoff-scale negative eigenvalues are clipped to zero; a significantly
    indefinite (or non-finite) input raises.
    """
    w, v = _eigh(coupling)
    if not w.min() >= -1e-8 * max(w[-1], 1.0):
        raise ValueError(f"matrix is not positive semidefinite (eigenvalue {w.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def spd_inv_sqrt(coupling) -> np.ndarray:
    """Hermitian inverse square root; refuses numerically singular input."""
    w, v = _eigh(coupling)
    _check_floor(w.min(), coupling.rho if isinstance(coupling, CouplingMatrix) else 0.0)
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
