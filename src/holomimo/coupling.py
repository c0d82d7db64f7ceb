"""One kernel type for correlation and coupling; coupling matrices.

R and C are one operator with two densities, the angular spectrum and the
element power pattern (``_kernels``), so one ``Kernel`` type holds both.
Omnidirectional elements give sinc(2 d) in the pairwise distances d (in
wavelengths), other axisymmetric patterns a radial Bessel rule in d, and the
rest the hemisphere quadrature.  A kernel that commutes with the array's
mirror reflections splits into reflection-symmetry sectors (Cantoni & Butler,
Linear Algebra Appl. 13, 1976), each solved on its own; ``Kernel.reflections``
finds those reflections once per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._kernels import HEMISPHERE, density_kernel
from .geometry import ArrayGeometry, mirror_permutations
from .spectra import AngularSpectrum, AntennaPattern, check_normalization, omni_pattern

__all__ = [
    "CouplingMatrix",
    "Kernel",
    "Sector",
    "SingularCouplingError",
    "coupling_closed_form",
    "coupling_general",
    "coupling_ratio",
    "regularize",
    "spd_sqrt",
    "spd_inv_sqrt",
    "write_coupling_csv",
]

# Eigenvalue floor below which the inverse square root refuses to proceed.
EIGENVALUE_FLOOR = 1e-12
# Peak-relative residue up to which a matrix counts as commuting with a reflection.
_COMMUTE_TOL = 1e-12


class SingularCouplingError(RuntimeError):
    """Raised when a coupling matrix is numerically singular for inversion."""


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


def _descending(parts) -> np.ndarray:
    """The eigenvalues of all sectors in one decreasing array."""
    return np.sort(np.concatenate(list(parts)))[::-1]


@dataclass(frozen=True)
class Kernel:
    """Hermitian N x N correlation or coupling matrix with its provenance:
    the array it was built on, when known; the total diagonal loading ``rho``
    applied so far (0 means raw); and the constructor's ``kind``.
    """

    matrix: np.ndarray
    geometry: ArrayGeometry | None = None
    rho: float = 0.0
    kind: str = "matrix"

    @property
    def n_antennas(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def reflections(self) -> list[np.ndarray]:
        """The mirror permutations of ``geometry`` this matrix commutes with,
        checked on first use and kept (``_commutes``)."""
        g = self.geometry
        if g is None or g.n_antennas != self.n_antennas:
            return []
        return [p for p in mirror_permutations(g) if _commutes(self.matrix, p)]

    def sectors(self, *others: np.ndarray) -> list[Sector]:
        """One sector per character of the group G generated by those of
        ``reflections`` that every matrix in ``others`` also commutes with;
        empty sectors are left out.  Without such a reflection this is one
        sector: the whole matrix in the identity basis.
        """
        perms = [p for p in self.reflections if all(_commutes(m, p) for m in others)]
        n = self.n_antennas
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

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in decreasing order, solved sector by sector."""
        return _descending(np.linalg.eigvalsh(s.block(self.matrix)) for s in self.sectors())


CouplingMatrix = Kernel


def coupling_closed_form(geometry: ArrayGeometry) -> Kernel:
    """sinc(2 d) coupling for lossless omnidirectional elements."""
    return coupling_general(geometry, omni_pattern())


def _coupling_scale(pattern: AntennaPattern) -> float:
    """The ``density_kernel`` scale of C: the full-sphere average 1/4pi over
    the hemispheres the pattern radiates into.  Planar arrays have no z
    offsets, so a mirrored lower hemisphere shares the upper one's in-plane
    phases and doubles its weight."""
    hemispheres = 2.0 if pattern.lower == "mirror" else 1.0
    return hemispheres / (4.0 * np.pi)


def coupling_ratio(spectrum: AngularSpectrum, pattern: AntennaPattern) -> float | None:
    """kappa with C = kappa R when the pattern is the spectrum's own density
    (the same evaluator object, cap and lower-hemisphere rule), else None.

    Both kernels are then one ``density_kernel`` at two scales, R's
    ``HEMISPHERE`` and ``_coupling_scale``, so kappa is their ratio: 1 for a
    mirrored density such as isotropic with omni, 1/2 for a one-sided cap.
    """
    if (pattern.evaluator is spectrum.evaluator and pattern.theta0 == spectrum.theta0
            and pattern.lower == spectrum.lower):
        return _coupling_scale(pattern) / HEMISPHERE
    return None


def coupling_general(geometry: ArrayGeometry, pattern: AntennaPattern) -> Kernel:
    """Coupling for an arbitrary normalized element power pattern.

    Full-sphere average (1/4pi) of |A|^2 times the plane-wave outer product
    (``_coupling_scale``).  The omni pattern (and a pattern matched to the
    isotropic spectrum) takes the closed form.  Any other pattern must be
    normalized, which is checked on the rule that built C (the radial theta
    rule or the 2-D quadrature); the result is symmetrized after checking
    that the asymmetry and imaginary residue are at quadrature-noise level.
    """
    m, q = density_kernel(geometry.positions, pattern, _coupling_scale(pattern))
    if q is None:
        return Kernel(m, geometry, kind="closed-form")
    norm = check_normalization(pattern, q)
    if abs(norm - 1.0) > 1e-3:
        raise ValueError(f"pattern {pattern.name!r} is not normalized (average {norm:.6f})")
    if np.iscomplexobj(m):
        residue = np.abs(m.imag).max()
        raise RuntimeError(f"coupling quadrature residue {residue:.3e} exceeds tolerance")
    return Kernel(m, geometry, kind=f"general({pattern.name})")


def _check_rho(rho) -> np.ndarray:
    """One or many diagonal loadings as a float array; each must be finite and >= 0."""
    r = np.asarray(rho, dtype=float)
    if not np.all((r >= 0.0) & (r < np.inf)):
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")
    return r


def regularize(coupling: Kernel, rho: float) -> Kernel:
    """Diagonal loading: C + rho * I, accumulating rho in the provenance."""
    rho = float(_check_rho(rho))
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


def _psd_spectrum(w, what: str = "matrix") -> np.ndarray:
    """The eigenvalues of a positive semidefinite ``what`` as a float array;
    negatives down to -1e-8 max(top, 1) are roundoff and clipped to zero."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise ValueError("need at least one eigenvalue")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite and positive semidefinite, "
                         f"got eigenvalue {w[~np.isfinite(w)][0]}")
    if not w.min() >= -1e-8 * max(w.max(), 1.0):
        raise ValueError(f"{what} is not positive semidefinite: eigenvalues must be "
                         f"nonnegative, got {w.min():.3e}")
    return np.clip(w, 0.0, None)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues w and eigenvectors V of a square array,
    M = V diag(w) V^H; only the lower triangle is read."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return np.linalg.eigh(m)


def spd_sqrt(kernel) -> np.ndarray:
    """Hermitian PSD square root of a kernel or a square array; roundoff negative
    eigenvalues are clipped, an indefinite or non-finite input raises."""
    w, v = _eigh(getattr(kernel, "matrix", kernel))
    return (v * np.sqrt(_psd_spectrum(w))) @ v.conj().T


def spd_inv_sqrt(kernel) -> np.ndarray:
    """Inverse square root of a kernel or a square array; refuses singular input."""
    w, v = _eigh(getattr(kernel, "matrix", kernel))
    _check_floor(w.min(), getattr(kernel, "rho", 0.0))
    return (v / np.sqrt(w)) @ v.conj().T


def write_coupling_csv(coupling: Kernel, path) -> None:
    """Dense (row, col, value) export with a provenance header."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# n_antennas={coupling.n_antennas}\n")
        fh.write(f"# rho={coupling.rho:.12g}\n")
        fh.write(f"# kind={coupling.kind}\n")
        g = coupling.geometry
        fh.write(f"# geometry={g.content_hash() if g is not None else 'none'}\n")
        fh.write("row,col,value\n")
        m = coupling.matrix
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                fh.write(f"{i},{j},{m[i, j]:.12g}\n")
