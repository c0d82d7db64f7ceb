"""One kernel type for correlation and coupling; coupling matrices.

R and C are one operator with two densities, the angular spectrum and the
element power pattern (``_kernels``), so one ``Kernel`` type holds both.
A pattern uniform on the whole hemisphere (omni) gives sinc(2 d) in the
pairwise distances d (in wavelengths), one uniform on a smaller cap a radial
Bessel rule in d, and the rest the hemisphere quadrature.  On a grid a kernel
is a table over the unique position differences, and the N x N matrix is
formed only on demand.  A kernel that commutes with the array's mirror
reflections splits into reflection-symmetry sectors (Cantoni & Butler,
Linear Algebra Appl. 13, 1976), and with the diagonal of a square grid into
the sectors of the dihedral group, each solved on its own;
``Kernel.reflections`` asks the grid (``_kernels.Grid.reflections``) which
of them the kernel's table is even under, once per kernel.  An array
without a grid is one sector.  A kernel holds the operator alone: its
entries, its diagonal loading and its grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from ._kernels import HEMISPHERE, Grid, density_kernel
from .geometry import ArrayGeometry, _is_number
from .spectra import AngularSpectrum, AntennaPattern, omni_pattern

__all__ = [
    "Kernel",
    "Sector",
    "SingularCouplingError",
    "coupling_closed_form",
    "coupling_general",
    "coupling_ratio",
    "regularize",
    "spd_sqrt",
    "spd_inv_sqrt",
]

# Eigenvalue floor below which the inverse square root refuses to proceed.
EIGENVALUE_FLOOR = 1e-12
# Largest |average - 1| of an accepted pattern; every built-in one is within 5e-15.
_NORM_TOL = 1e-10
# Roundoff sign of a PSD spectrum, relative to its top (R and C reach -1.4e-15).
_PSD_TOL = 1e-12


class SingularCouplingError(RuntimeError):
    """Raised when a coupling matrix is numerically singular for inversion."""


@dataclass(frozen=True)
class Sector:
    """One symmetry sector of a group G of antenna permutations under a real
    one-dimensional character chi.

    The basis vectors are q_r = sum_k chi(k) e_{k(r)} / sqrt(|G| |Stab(r)|)
    for the orbit representatives r on whose stabilizer chi is trivial.
    ``rows`` holds those r; ``images[k]`` their images k(r), identity first;
    ``signs[k]`` is chi(k); ``scale`` is 1 / sqrt(|Stab(r)|).  The block's
    eigenvalues occur ``multiplicity`` times in the whole spectrum.
    """

    rows: np.ndarray
    images: np.ndarray
    signs: np.ndarray
    scale: np.ndarray
    multiplicity: int = 1

    def block(self, kernel: "Kernel") -> np.ndarray:
        """Q^T M Q for a kernel M that commutes with G, by gathers alone:
        B[a, b] = sum_k chi(k) M[r_a, k(r_b)] / sqrt(|Stab(r_a)| |Stab(r_b)|)."""
        b = kernel.take(self.rows, self.images[0])
        for sign, image in zip(self.signs[1:], self.images[1:]):
            if sign > 0:
                b += kernel.take(self.rows, image)
            else:
                b -= kernel.take(self.rows, image)
        b *= self.scale[:, None]
        b *= self.scale[None, :]
        return b

    def eigenvalues(self, m: np.ndarray) -> np.ndarray:
        """The eigenvalues of a block of this sector, each as often as it occurs."""
        return np.tile(np.linalg.eigvalsh(m), self.multiplicity)


def _sectors(images: np.ndarray, chis, multiplicity: int = 1):
    """The nonempty sectors of the group whose element j, composed of the
    generators whose bits are set in j, maps antenna n to images[j, n]; one
    per character in ``chis``, each the set of generators that it negates."""
    n = images.shape[1]
    reps = np.flatnonzero(images.min(axis=0) == np.arange(n))
    stab = images[:, reps] == reps
    scale = 1.0 / np.sqrt(stab.sum(axis=0))
    for chi in chis:
        # chi(j) = -1 when j holds an odd number of the generators chi negates.
        signs = np.array([-1.0 if bin(j & chi).count("1") % 2 else 1.0
                          for j in range(len(images))])
        # a representative stays when chi is trivial on its stabilizer
        keep = np.all(stab <= (signs[:, None] > 0), axis=0)
        if keep.any():
            rows = reps[keep]
            yield Sector(rows, images[:, rows], signs, scale[keep], multiplicity)


def _descending(parts) -> np.ndarray:
    """The eigenvalues of all sectors in one decreasing array."""
    return np.sort(np.concatenate(list(parts)))[::-1]


@dataclass(frozen=True)
class Kernel:
    """Hermitian N x N correlation or coupling kernel with the total diagonal
    loading ``rho`` applied so far (0 means raw).

    ``entries`` is the N x N matrix, or, when ``grid`` is given, the table
    over the grid's unique position differences (``_kernels.Grid``), from
    which ``matrix`` is formed on first use only.
    """

    entries: np.ndarray
    rho: float = 0.0
    grid: Grid | None = None

    @property
    def n_antennas(self) -> int:
        return self.entries.shape[0] if self.grid is None else self.grid.n_antennas

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense N x N matrix."""
        if self.grid is None:
            return self.entries
        every = np.arange(self.n_antennas)
        return self.take(every, every)

    def take(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The entries M[rows[a], cols[b]] as a new array."""
        if self.grid is None:
            return self.entries[np.ix_(rows, cols)]
        return self.entries.ravel().take(self.grid.cells(rows, cols))

    @cached_property
    def reflections(self) -> dict[str, np.ndarray]:
        """The reflections of the grid that this kernel's table is even under
        (``Grid.reflections``), by name, checked on first use and kept; none
        without a grid, so an irregular array is one sector."""
        return {} if self.grid is None else self.grid.reflections(self.entries)

    def sectors(self, *others: "Kernel") -> list[Sector]:
        """The sectors of the group G generated by those of ``reflections``
        that every kernel in ``others`` also commutes with; empty sectors are
        left out.  Without such a reflection this is one sector: the whole
        matrix in the identity basis.

        The x and y mirrors generate an abelian group, one sector per sign
        pair (Cantoni & Butler).  With the diagonal as well, G is the dihedral
        group of order 8 (Fassler & Stiefel, Group Theoretical Methods and
        Their Applications, 1992): one sector for each of its four
        one-dimensional characters, chi(x) = chi(y) and chi(diagonal) = +-1,
        and for its two-dimensional one the (+, -) mirror sector, whose
        spectrum the diagonal copies onto the (-, +) one, counted twice.
        """
        shared = {name: p for name, p in self.reflections.items()
                  if all(np.array_equal(o.reflections.get(name), p) for o in others)}
        # the diagonal with one mirror generates the dihedral group too, and
        # then the other mirror is missing from the generators: leave it out
        perms = [p for name, p in shared.items()
                 if name != "diagonal" or len(shared) != 2]
        dihedral = len(perms) == 3
        images = [np.arange(self.n_antennas)]
        for p in perms:
            images += [image[p] for image in images]
        images = np.stack(images)
        if not dihedral:
            return list(_sectors(images, range(len(images))))
        # generator bits in Grid.reflections' order: characters negating
        # none, both mirrors, the diagonal, or all three; then the (+, -)
        # sector of the mirrors alone, the first four elements
        return [*_sectors(images, (0, 3, 4, 7)), *_sectors(images[:4], (2,), 2)]

    @cached_property
    def _spectrum(self) -> np.ndarray:
        w = _descending(s.eigenvalues(s.block(self)) for s in self.sectors())
        w.flags.writeable = False
        return w

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in decreasing order, solved sector by sector once, read-only."""
        return self._spectrum


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
    (an equal evaluator, cap and lower-hemisphere rule), else None.

    Both kernels are then one ``density_kernel`` at two scales, R's
    ``HEMISPHERE`` and ``_coupling_scale``, so kappa is their ratio: 1 for a
    mirrored density such as isotropic with omni, 1/2 for a one-sided cap.
    """
    if (pattern.evaluator == spectrum.evaluator and pattern.theta0 == spectrum.theta0
            and pattern.lower == spectrum.lower):
        return _coupling_scale(pattern) / HEMISPHERE
    return None


def coupling_general(geometry: ArrayGeometry, pattern: AntennaPattern) -> Kernel:
    """Coupling for an arbitrary normalized element power pattern.

    Full-sphere average (1/4pi) of |A|^2 times the plane-wave outer product
    (``_coupling_scale``).  A pattern uniform on the whole hemisphere (omni,
    or one matched to the isotropic spectrum or to cap(pi/2)) takes the
    closed form, one uniform on a smaller cap the radial rule, and the rest
    the 2-D quadrature.  Every pattern must be normalized to ``_NORM_TOL``,
    which is read off C's zero difference: on every rule it holds the scale
    times the rule's integral of the pattern, its full-sphere average.  A
    complex C, whose imaginary part ``_kernels._close`` does not take for
    zero, is refused after that.
    """
    m, grid = density_kernel(geometry.positions, pattern, _coupling_scale(pattern))
    norm = (m[grid.origin] if grid is not None else m[0, 0]).real
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"pattern {pattern.name!r} is not normalized (average {norm:.6f}): "
                         f"off by {norm - 1.0:.3e}, beyond {_NORM_TOL:.0e}")
    if np.iscomplexobj(m):
        residue = np.abs(m.imag).max()
        raise RuntimeError(f"coupling quadrature residue {residue:.3e} exceeds tolerance")
    return Kernel(m, grid=grid)


def _check_rho(rho) -> np.ndarray:
    """One diagonal loading or a sequence of them as a 1-D float array; each
    must be a nonnegative ``geometry._is_number``, not a boolean or a string."""
    rhos = [rho] if np.ndim(rho) == 0 else list(rho)
    if not all(_is_number(r) and r >= 0 for r in rhos):
        raise ValueError(f"rho must be a nonnegative number or a list of them, got {rho!r}")
    return np.array(rhos, dtype=float)


def regularize(coupling: Kernel, rho: float) -> Kernel:
    """Diagonal loading: C + rho * I, accumulating rho in the provenance.  A
    table takes rho at its zero difference, which only the diagonal hits."""
    rhos = _check_rho(rho)
    if rhos.size != 1:
        raise ValueError(f"regularize takes one rho, got {rho!r}")
    rho = rhos.item()
    if coupling.grid is None:
        m = coupling.entries + rho * np.eye(coupling.n_antennas)
    else:
        m = coupling.entries.copy()
        m[coupling.grid.origin] += rho
    return replace(coupling, entries=m, rho=coupling.rho + rho)


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
    negatives down to -``_PSD_TOL`` top are roundoff and clipped to zero."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise ValueError("need at least one eigenvalue")
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{what} must be finite and positive semidefinite, "
                         f"got eigenvalue {w[~np.isfinite(w)][0]}")
    if not w.min() >= -_PSD_TOL * w.max():
        raise ValueError(f"{what} is not positive semidefinite: eigenvalues must be "
                         f"nonnegative, got {w.min():.3e} against a top of {w.max():.3e}")
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

