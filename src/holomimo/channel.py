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

from dataclasses import dataclass

import numpy as np

from . import _lapack
from ._kernels import HEMISPHERE, density_kernel
from .coupling import (Kernel, _check_floor, _check_rho, _descending, _eigh, _psd_spectrum,
                       coupling_general, coupling_ratio, spd_inv_sqrt)
from .fourier import FourierBasis
from .geometry import ArrayGeometry, _config_number
from .spectra import AngularSpectrum, AntennaPattern

__all__ = [
    "CorrelationMatrix",
    "ChannelModel",
    "exact_correlation",
    "coupled_correlation_exact",
    "whitened_eigenvalues",
    "exact_spectra",
    "fourier_model",
    "exact_model",
    "iid_model",
    "substream",
    "complex_normal",
]


def _check_seed(seed) -> int:
    """The one seed rule, a Philox key: a count from 0, below 2**128."""
    if _config_number("seed", seed, 0) >= 2**128:
        raise ValueError(f"seed must be below 2**128, got {seed!r}")
    return int(seed)


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator for realization ``index``, a count from 0, of stream ``seed``."""
    key = _check_seed(seed)
    return np.random.Generator(np.random.Philox(key=key).jumped(_config_number("index", index, 0)))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard circularly symmetric complex normal entries.

    Both parts come from one draw, scaled in place: the bits of
    ``(a + 1j * b) / sqrt(2)`` for consecutive draws ``a`` and ``b`` (numpy
    divides a complex array by a real one through its reciprocal), without
    the complex temporaries.
    """
    out = np.empty(shape, dtype=complex)
    parts = rng.standard_normal((2, *out.shape))
    parts *= 1.0 / np.sqrt(2.0)
    out.real, out.imag = parts
    return out


CorrelationMatrix = Kernel


def exact_correlation(geometry: ArrayGeometry, spectrum: AngularSpectrum) -> Kernel:
    """Upper-hemisphere correlation (1/2pi) * integral of E exp(i k . (r - s)).

    The diagonal equals the spectrum's upper-hemisphere mass over 2pi: one for
    hemisphere-balanced spectra, two for one-sided caps (all the power arrives
    from above).  The spectrum alone picks the rule
    (``_kernels.density_kernel``): one uniform on its polar cap (every
    built-in one) takes the radial rule, the closed form sinc(2 d) on the
    whole hemisphere (isotropic) and the Bessel rule in the distance on a
    smaller cap; any other takes the 2-D hemisphere rule.  The matrix is real
    for every point-symmetric spectrum and complex Hermitian otherwise.
    """
    m, grid = density_kernel(geometry.positions, spectrum, HEMISPHERE)
    return Kernel(m, geometry, grid=grid)


def coupled_correlation_exact(correlation: Kernel, coupling: Kernel) -> Kernel:
    """Coupling-whitened correlation C^{-1/2} R C^{-1/2}, without a geometry:
    the dense reference, solved as one sector."""
    f = spd_inv_sqrt(coupling)
    m = f @ correlation.matrix @ f
    return Kernel(0.5 * (m + m.conj().T))


@_lapack.one_thread()
def whitened_eigenvalues(correlation: Kernel, coupling: Kernel, rhos) -> np.ndarray:
    """Descending eigenvalues of C^{-1/2}(rho) R C^{-1/2}(rho), one row per rho.

    C + rho I shares the eigenvectors V of C for every rho, so C is decomposed
    once and R' = V^H R V formed once; each rho then costs one eigvalsh of
    D R' D with D = diag((w + rho)^{-1/2}), which is similar to the whitened
    correlation (Golub & Van Loan, Matrix Computations, sec. 8.7).  All of
    this runs per sector of the reflections of R (``Kernel.reflections``)
    that C also commutes with (``Kernel.sectors``), so R is never checked a
    second time.  Raises SingularCouplingError, before the sign check and any
    per-rho solve, for a rho that leaves C + rho I at the floor.  The rows
    are as positive semidefinite as R (Sylvester's law of inertia), so an
    indefinite R is refused and each row clipped at zero: the whitening
    amplifies R's roundoff by about top / rho.
    """
    rhos = _check_rho(rhos)
    parts = []
    for s in correlation.sectors(coupling):
        w, v = _eigh(s.block(coupling))
        parts.append((s, w, v.conj().T @ s.block(correlation) @ v))
    w_min = min(w.min() for _, w, _ in parts)
    for rho in rhos:
        _check_floor(w_min + rho, coupling.rho + rho)
    # R's sign, from the eigenvalues of its blocks in C's eigenbasis
    _psd_spectrum(np.concatenate([s.eigenvalues(r) for s, _, r in parts]), "correlation matrix R")
    out = np.empty((rhos.size, coupling.n_antennas))
    for i, rho in enumerate(rhos):
        ev = []
        for s, w, r in parts:
            d = 1.0 / np.sqrt(w + rho)
            ev.append(s.eigenvalues(d[:, None] * r * d[None, :]))
        out[i] = np.clip(_descending(ev), 0.0, None)
    return out


@_lapack.one_thread()
def exact_spectra(geometry: ArrayGeometry, spectrum: AngularSpectrum, pattern: AntennaPattern,
                  rhos) -> tuple[np.ndarray, np.ndarray]:
    """Descending eigenvalues of R, and one row of whitened eigenvalues per rho.

    C = kappa R (``coupling_ratio``), the paper's coupling that counters
    correlation, maps them as lambda / (kappa lambda + rho), which keeps their
    order, and C is never built; any other pair builds C when there is a rho
    and takes ``whitened_eigenvalues``.  An indefinite R is refused, and every
    row is nonnegative: the scalar map keeps the sign of R's clipped
    eigenvalues, and ``whitened_eigenvalues`` clips its rows.
    """
    corr = exact_correlation(geometry, spectrum)
    raw = corr.eigenvalues()
    ev = _psd_spectrum(raw, "correlation matrix R")
    rhos = _check_rho(rhos)
    kappa = coupling_ratio(spectrum, pattern)
    if not rhos.size:
        rows = np.empty((0, ev.size))
    elif kappa is None:
        rows = whitened_eigenvalues(corr, coupling_general(geometry, pattern), rhos)
    else:
        for rho in rhos:
            _check_floor(kappa * raw.min() + rho, rho)
        rows = ev / (kappa * ev + rhos[:, None])
    return ev, rows


@dataclass(frozen=True)
class ChannelModel:
    """i.i.d.-in-time channel draws diag(amp_r) W diag(amp_t), W i.i.d. CN(0, 1).

    The amplitudes are per-cell sqrt(N sigma2) (Fourier), the square root of
    a transmit spectrum (exact), or ones (iid, the white reference).  ``kind``
    names the constructor.
    """

    amp_r: np.ndarray
    amp_t: np.ndarray
    label: str
    kind: str

    def __post_init__(self):
        if self.amp_r.size == 0 or self.amp_t.size == 0:
            raise ValueError(f"a channel needs an antenna at each end, got shape {self.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.amp_r.size, self.amp_t.size

    def realize(self, seed: int, index: int = 0) -> np.ndarray:
        """diag(amp_r) W diag(amp_t) for the white draw W of substream (seed, index)."""
        w = complex_normal(substream(seed, index), self.shape)
        return self.amp_r[:, None] * w * self.amp_t[None, :]


def fourier_model(rx: FourierBasis, tx: FourierBasis, label: str = "") -> ChannelModel:
    """Beamspace channel with independent entries of the per-cell variances."""
    return ChannelModel(np.sqrt(rx.n_antennas * rx.variances),
                        np.sqrt(tx.n_antennas * tx.variances),
                        label or f"fourier-{tx.flavor}", "fourier")


def _check_normalize(normalize: str) -> str:
    if normalize not in ("transmit", "receive"):
        raise ValueError(f"normalize must be 'transmit' or 'receive', got {normalize!r}")
    return normalize


def iid_model(n_rx: int, n_tx: int) -> ChannelModel:
    return ChannelModel(np.ones(_config_number("n_rx", n_rx, 1)),
                        np.ones(_config_number("n_tx", n_tx, 1)), "iid", "iid")


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
    lam = _psd_spectrum(np.ravel(tx_eigenvalues), "transmit spectrum")
    if _check_normalize(normalize) == "receive":
        p = lam.sum()
        if not p > 0.0:
            raise ValueError("'receive' cannot scale a spectrum with no power; use 'transmit'")
        lam = lam * (lam.size / p)
    n_rx = lam.size if n_rx is None else _config_number("n_rx", n_rx, 1)
    return ChannelModel(np.ones(n_rx), np.sqrt(lam), label or "exact", "exact")
