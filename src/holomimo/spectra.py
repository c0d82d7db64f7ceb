"""Angular power spectra, element power patterns, and hemisphere quadrature.

Spectra and patterns are one type of density: an evaluator on the upper
hemisphere (theta in [0, pi/2]) plus a rule for the lower hemisphere:
"mirror" reflects the upper values, "zero" truncates.  Normalization is the
full-sphere average (1/4pi) * integral, which must equal 1.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "AngularSpectrum",
    "AntennaPattern",
    "isotropic_spectrum",
    "cap_spectrum",
    "cap_constant",
    "omni_pattern",
    "matched_pattern",
    "hemisphere_quadrature",
    "quadrature_for",
    "pattern_covers",
    "spectrum_from_name",
    "pattern_from_name",
]

_EDGE_TOL = 1e-12


def _check_half_angle(theta0: float) -> None:
    if not 0.0 < theta0 <= np.pi / 2 + _EDGE_TOL:
        raise ValueError(f"cap half-angle must lie in (0, pi/2], got {theta0!r}")


@dataclass(frozen=True)
class AngularSpectrum:
    """Normalized angular power density: a scattering spectrum, or an element
    power pattern |A|^2 (``AntennaPattern`` is the same type).

    The support is the upper cap theta <= theta0, where pi/2 is the whole
    hemisphere: the density is zero beyond it, whatever the evaluator gives
    there.  The evaluator takes no part in equality.
    """

    name: str
    evaluator: Callable = field(compare=False)
    theta0: float = np.pi / 2
    lower: str = "mirror"  # lower-hemisphere rule: "mirror" | "zero"

    def __post_init__(self):
        _check_half_angle(self.theta0)

    @property
    def edge(self) -> float | None:
        """theta0 when the support ends inside the hemisphere, else None."""
        return self.theta0 if self.theta0 < np.pi / 2 - _EDGE_TOL else None

    def __call__(self, theta, phi) -> np.ndarray:
        theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                         np.asarray(phi, dtype=float))
        upper = theta <= np.pi / 2 + _EDGE_TOL
        folded = np.where(upper, theta, np.pi - theta)
        inside = folded <= self.theta0 + _EDGE_TOL
        if self.lower == "zero":
            inside &= upper
        return np.where(inside, np.asarray(self.evaluator(folded, phi), dtype=float), 0.0)


AntennaPattern = AngularSpectrum


@functools.cache
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], the one source of every
    Gauss-Legendre rule; each count's eigensolve runs once per process."""
    return leggauss(n)


def hemisphere_quadrature(n_theta: int = 256, n_phi: int = 512,
                          edges=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened (theta, phi, weight) nodes of a product rule on the upper
    hemisphere, theta varying slowest.

    Gauss-Legendre panels in theta, split at the ``edges`` (each inside
    (0, pi/2), as a density's ``edge`` is), with sin(theta) folded into the
    weights, times a uniform midpoint rule in phi (exact for trigonometric
    polynomials up to the node count, which suits periodic integrands).
    """
    bounds = [0.0, *sorted({float(e) for e in edges}), np.pi / 2]
    spans = np.diff(bounds)
    counts = np.maximum(16, np.rint(n_theta * spans / spans.sum()).astype(int))
    nodes, weights = [], []
    for (a, b), m in zip(zip(bounds[:-1], bounds[1:]), counts):
        x, w = _legendre(int(m))
        t = 0.5 * (b - a) * (x + 1.0) + a
        nodes.append(t)
        weights.append(0.5 * (b - a) * w * np.sin(t))
    phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
    theta, phi = np.meshgrid(np.concatenate(nodes), phi, indexing="ij")
    weight = np.repeat(np.concatenate(weights) * (2.0 * np.pi / n_phi), n_phi)
    return theta.ravel(), phi.ravel(), weight


def quadrature_for(density, n_theta: int = 256, n_phi: int = 512):
    """``hemisphere_quadrature`` with a panel edge at the density's edge, if any."""
    edges = () if density.edge is None else (density.edge,)
    return hemisphere_quadrature(n_theta, n_phi, edges)


@dataclass(frozen=True)
class _UniformCap:
    """Evaluator of a density uniform on its polar cap: the constant
    ``value``, bounded by the density's own ``theta0``.  Every built-in
    density has one, and two parses of one name give equal evaluators."""

    value: float = 1.0

    def __call__(self, theta, phi) -> float:
        return self.value


def _uniform_on_cap(density: AngularSpectrum) -> bool:
    """Whether a density is uniform on its polar cap (every built-in one is).
    Along each ray from the origin it is then constant between the cap
    edges, so its kernels take the radial rule and its Fourier variances
    integrate each ray exactly."""
    return isinstance(density.evaluator, _UniformCap)


def isotropic_spectrum() -> AngularSpectrum:
    """Unit density over the full sphere."""
    return AngularSpectrum("isotropic", _UniformCap())


def cap_constant(theta0: float) -> float:
    """Normalizing constant of a one-sided polar cap of half-angle theta0,
    2 / (1 - cos theta0), in a form that does not cancel as the cap shrinks."""
    return 1.0 / np.sin(theta0 / 2.0) ** 2


def cap_spectrum(theta0: float) -> AngularSpectrum:
    """Uniform density on the upper polar cap theta <= theta0, zero elsewhere.

    Refuses a half-angle outside (0, pi/2], and one so small that
    1 - cos(theta0) rounds to zero (below about 1e-8 rad).
    """
    theta0 = float(theta0)
    _check_half_angle(theta0)
    if np.cos(theta0) == 1.0:
        raise ValueError(f"cap half-angle {theta0!r} is too small: 1 - cos(theta0) rounds to "
                         f"zero in double precision; use a half-angle of at least 1e-7 rad")
    return AngularSpectrum(f"cap({theta0:g})", _UniformCap(cap_constant(theta0)), theta0,
                           lower="zero")


def omni_pattern() -> AntennaPattern:
    """Omnidirectional element: unit power pattern over the full sphere."""
    return AntennaPattern("omni", _UniformCap())


def matched_pattern(spectrum: AngularSpectrum) -> AntennaPattern:
    """Element pattern proportional to the given spectrum: a renamed copy."""
    return replace(spectrum, name=f"matched({spectrum.name})")


def pattern_covers(spectrum: AngularSpectrum, pattern: AntennaPattern) -> bool:
    """True when the pattern's support (cap and lower hemisphere) contains the
    spectrum's; ``_check_covers`` refuses any other pair."""
    upper = pattern.theta0 >= spectrum.theta0 - _EDGE_TOL
    return upper and (pattern.lower == "mirror" or spectrum.lower == "zero")


def _check_covers(spectrum: AngularSpectrum, pattern: AntennaPattern) -> None:
    """Refuses a pattern that vanishes inside the spectrum's support
    (``pattern_covers``): deconvolving it would divide by zero."""
    if not pattern_covers(spectrum, pattern):
        raise ValueError(f"pattern {pattern.name!r} vanishes inside the support of spectrum "
                         f"{spectrum.name!r}; the coupled variances would diverge")


_CAP_RE = re.compile(r"^cap\(\s*([0-9.eE+-]+)\s*\)$")
_MATCHED_RE = re.compile(r"^matched(\((.*)\))?$")


def spectrum_from_name(text: str) -> AngularSpectrum:
    """Parse config names: ``isotropic`` or ``cap(<theta0 radians>)``."""
    text = text.strip()
    if text == "isotropic":
        return isotropic_spectrum()
    m = _CAP_RE.match(text)
    if m:
        return cap_spectrum(float(m.group(1)))
    raise ValueError(f"unknown spectrum {text!r}; expected 'isotropic' or 'cap(theta0)'")


def pattern_from_name(text: str, spectrum: AngularSpectrum | None = None) -> AntennaPattern:
    """Parse config names: ``omni``, ``matched`` or ``matched(<spectrum>)``.

    Bare ``matched`` matches the experiment's own spectrum.
    """
    text = text.strip()
    if text == "omni":
        return omni_pattern()
    m = _MATCHED_RE.match(text)
    if m:
        if m.group(2):
            return matched_pattern(spectrum_from_name(m.group(2)))
        if spectrum is None:
            raise ValueError("pattern 'matched' needs a spectrum to match")
        return matched_pattern(spectrum)
    raise ValueError(f"unknown pattern {text!r}; expected 'omni' or 'matched(...)'")
