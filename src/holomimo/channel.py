"""Spatial correlation matrices and random channel realizations.

The exact correlation is the upper-hemisphere average of the plane-wave outer
product under the angular spectrum; coupling enters as a whitening of that
matrix.  The Fourier model replaces the exact correlation by independent
beamspace entries with the per-cell variances, which is what makes large
apertures tractable.  All randomness flows through counter-based Philox
substreams keyed by (seed, realization index), so draws are reproducible and
order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import HEMISPHERE, density_kernel
from .coupling import CouplingMatrix, _check_floor, spd_inv_sqrt, spd_sqrt
from .fourier import FourierBasis, dof_prime
from .geometry import ArrayGeometry
from .spectra import AngularSpectrum, HemisphereQuadrature

__all__ = [
    "CorrelationMatrix",
    "ChannelModel",
    "exact_correlation",
    "coupled_correlation_exact",
    "whitened_eigenvalues",
    "fourier_correlation",
    "fourier_model",
    "exact_model",
    "iid_model",
    "sample_fourier_channel",
    "sample_exact_channel",
    "substream",
    "complex_normal",
]


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for realization ``index`` of stream ``seed``."""
    return np.random.Generator(np.random.Philox(key=int(seed)).jumped(int(index)))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly symmetric complex normal entries."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Hermitian N x N spatial correlation with provenance."""

    matrix: np.ndarray
    kind: str  # "exact" | "coupled-exact" | "fourier-uncoupled" | "fourier-coupled"
    meta: dict = field(default_factory=dict, compare=False)

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalues in decreasing order."""
        return np.linalg.eigvalsh(self.matrix)[::-1]


def exact_correlation(geometry: ArrayGeometry, spectrum: AngularSpectrum,
                      quadrature: HemisphereQuadrature | None = None) -> CorrelationMatrix:
    """Upper-hemisphere correlation (1/2pi) * integral of E exp(i k . (r - s)).

    The diagonal equals the spectrum's upper-hemisphere mass over 2pi: one for
    hemisphere-balanced spectra, two for one-sided caps (all the power arrives
    from above).  The isotropic spectrum takes the closed form sinc(2 d) and
    ignores ``quadrature``.  The matrix is real for every point-symmetric
    spectrum and complex Hermitian otherwise.
    """
    m, _ = density_kernel(geometry.positions, spectrum, HEMISPHERE, quadrature)
    return CorrelationMatrix(m, "exact", {"spectrum": spectrum.name})


def coupled_correlation_exact(correlation: CorrelationMatrix,
                              coupling: CouplingMatrix) -> CorrelationMatrix:
    """Coupling-whitened correlation C^{-1/2} R C^{-1/2}."""
    f = spd_inv_sqrt(coupling)
    m = f @ correlation.matrix @ f
    m = 0.5 * (m + m.conj().T)
    meta = dict(correlation.meta)
    meta["rho"] = coupling.rho
    return CorrelationMatrix(m, "coupled-exact", meta)


def whitened_eigenvalues(correlation: CorrelationMatrix, coupling: CouplingMatrix,
                         rhos) -> np.ndarray:
    """Descending eigenvalues of C^{-1/2}(rho) R C^{-1/2}(rho), one row per rho.

    C + rho I shares the eigenvectors V of C for every rho, so C is decomposed
    once and R' = V^H R V formed once; each rho then costs one eigvalsh of
    D R' D with D = diag((w + rho)^{-1/2}), which is similar to the whitened
    correlation (Golub & Van Loan, Matrix Computations, sec. 8.7).  Raises
    SingularCouplingError for a rho that leaves C + rho I at the floor.
    """
    rhos = np.atleast_1d(np.asarray(rhos, dtype=float))
    if np.any(rhos < 0.0):
        raise ValueError("rho must be nonnegative")
    w, v = np.linalg.eigh(coupling.matrix)
    r = v.conj().T @ correlation.matrix @ v
    out = np.empty((rhos.size, w.size))
    for i, rho in enumerate(rhos):
        _check_floor(w[0] + rho, coupling.rho + rho)
        d = 1.0 / np.sqrt(w + rho)
        out[i] = np.linalg.eigvalsh(d[:, None] * r * d[None, :])[::-1]
    return out


def fourier_correlation(basis: FourierBasis) -> CorrelationMatrix:
    """Low-rank model correlation V diag(N sigma2) V^H."""
    lam = basis.n_antennas * basis.variances
    v = basis.matrix
    m = (v * lam) @ v.conj().T
    m = 0.5 * (m + m.conj().T)
    return CorrelationMatrix(m, f"fourier-{basis.flavor}", {"spectrum": basis.spectrum.name})


@dataclass(frozen=True)
class ChannelModel:
    """i.i.d.-in-time channel draws diag(amp_r) W diag(amp_t), W i.i.d. CN(0, 1).

    The amplitudes are per-cell sqrt(N sigma2) (Fourier), the square root of
    a transmit spectrum (exact), or ones (iid, the white reference).  ``kind``
    names the constructor; ``dof`` is the high-SNR multiplexing gain.
    """

    amp_r: np.ndarray
    amp_t: np.ndarray
    label: str
    kind: str
    dof: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.amp_r.size, self.amp_t.size

    def apply(self, w: np.ndarray) -> np.ndarray:
        """diag(amp_r) w diag(amp_t) for one white draw ``w`` of this shape."""
        return self.amp_r[:, None] * w * self.amp_t[None, :]

    def realize(self, seed: int, index: int = 0) -> np.ndarray:
        return self.apply(complex_normal(substream(seed, index), self.shape))


def fourier_model(rx: FourierBasis, tx: FourierBasis, label: str = "") -> ChannelModel:
    """Beamspace channel with independent entries of the per-cell variances."""
    return ChannelModel(np.sqrt(rx.n_antennas * rx.variances),
                        np.sqrt(tx.n_antennas * tx.variances),
                        label or f"fourier-{tx.flavor}", "fourier",
                        min(dof_prime(rx.lattice, rx.spectrum), dof_prime(tx.lattice, tx.spectrum)))


def iid_model(n_rx: int, n_tx: int) -> ChannelModel:
    return ChannelModel(np.ones(n_rx), np.ones(n_tx), "iid", "iid", min(n_rx, n_tx))


def _receive_gain(power: float, n: int) -> float:
    """Factor that brings a total transmit power to n ('receive' normalization)."""
    if not power > 0.0:
        raise ValueError("'receive' cannot scale a spectrum with no power; use 'transmit'")
    return n / power


def exact_model(tx_eigenvalues, n_rx: int | None = None, normalize: str = "transmit",
                label: str = "") -> ChannelModel:
    """i.i.d.-receive channel with transmit spectrum eig R (uncoupled) or a row
    of ``whitened_eigenvalues`` (coupled).

    G i.i.d. Gaussian is unitarily invariant, so G R^{1/2} C^{-1/2} has the
    singular-value law of W diag(sqrt(eig)) (Tulino & Verdu, 2004).
    ``"transmit"`` uses the spectrum as is (power referred to the matched
    uncoupled transmitter); ``"receive"`` scales it to sum to the antenna
    count, comparing arrays at equal received power.
    """
    lam = np.asarray(tx_eigenvalues, dtype=float).ravel()
    if lam.min() < -1e-8 * max(lam.max(), 1.0):
        raise ValueError(f"transmit spectrum is not positive semidefinite "
                         f"(eigenvalue {lam.min():.3e})")
    lam = np.clip(lam, 0.0, None)
    if normalize == "receive":
        lam = lam * _receive_gain(lam.sum(), lam.size)
    elif normalize != "transmit":
        raise ValueError(f"normalize must be 'transmit' or 'receive', got {normalize!r}")
    n_rx = int(n_rx) if n_rx is not None else lam.size
    return ChannelModel(np.ones(n_rx), np.sqrt(lam), label or "exact", "exact",
                        min(n_rx, lam.size))


def sample_fourier_channel(rx: FourierBasis, tx: FourierBasis,
                           seed: int, index: int = 0, lift: bool = False) -> np.ndarray:
    """One beamspace realization; ``lift`` maps it to the antenna domain."""
    h = fourier_model(rx, tx).realize(seed, index)
    if lift:
        h = rx.matrix @ h @ tx.matrix.conj().T
    return h


def sample_exact_channel(tx_correlation: CorrelationMatrix,
                         coupling: CouplingMatrix | None = None,
                         seed: int = 0, n_rx: int | None = None, index: int = 0,
                         normalize: str = "transmit",
                         radiation_resistance: float | None = None) -> np.ndarray:
    """One antenna-domain realization G R^{1/2} C^{-1/2}.

    ``normalize`` is as in ``exact_model``.  ``radiation_resistance`` carries
    the physical element gain 2/R explicitly instead of folding it into the
    SNR definition; precoded mutual information is invariant to it because
    the matching power constraint scales inversely.
    """
    t = spd_sqrt(tx_correlation.matrix).astype(complex)
    if coupling is not None:
        t = t @ spd_inv_sqrt(coupling)
    if normalize == "receive":
        t = t * np.sqrt(_receive_gain(np.trace(t.conj().T @ t).real, t.shape[0]))
    elif normalize != "transmit":
        raise ValueError(f"normalize must be 'transmit' or 'receive', got {normalize!r}")
    if radiation_resistance is not None:
        t = t * np.sqrt(2.0 / radiation_resistance)
    n_t = t.shape[0]
    g = complex_normal(substream(seed, index), (int(n_rx) if n_rx is not None else n_t, n_t))
    return g @ t
