"""Angular power spectra, element power patterns, and hemisphere quadrature.

Spectra and patterns are one type of density: an evaluator on the upper
hemisphere (theta in [0, pi/2]) plus a rule for the lower hemisphere:
"mirror" reflects the upper values, "zero" truncates.  Normalization is the
full-sphere average (1/4pi) * integral, which must equal 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "Support",
    "AngularSpectrum",
    "AntennaPattern",
    "HemisphereQuadrature",
    "isotropic_spectrum",
    "cap_spectrum",
    "cap_constant",
    "omni_pattern",
    "matched_pattern",
    "quadrature_for",
    "check_normalization",
    "pattern_covers",
    "spectrum_from_name",
    "pattern_from_name",
]

_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Support:
    """Angular support of a spectrum: the full sphere or an upper polar cap."""

    kind: str  # "full" | "cap"
    theta0: float = np.pi / 2

    def __post_init__(self):
        if self.kind not in ("full", "cap"):
            raise ValueError(f"unknown support kind {self.kind!r}")
        if self.kind == "cap" and not 0.0 < self.theta0 <= np.pi / 2 + _EDGE_TOL:
            raise ValueError("cap half-angle must lie in (0, pi/2]")

    @property
    def disk_area(self) -> float:
        """Area of the support projected onto the unit wavenumber disk."""
        if self.kind == "full":
            return np.pi
        return np.pi * np.sin(self.theta0) ** 2

    @property
    def radial_break(self) -> float | None:
        """Radius in the wavenumber disk where the support ends, if interior."""
        if self.kind == "cap" and self.theta0 < np.pi / 2 - _EDGE_TOL:
            return float(np.sin(self.theta0))
        return None

    @property
    def theta_edges(self) -> tuple[float, ...]:
        if self.kind == "cap" and self.theta0 < np.pi / 2 - _EDGE_TOL:
            return (float(self.theta0),)
        return ()


def _evaluate(evaluator, lower: str, theta, phi) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    theta, phi = np.broadcast_arrays(theta, phi)
    upper = theta <= np.pi / 2 + _EDGE_TOL
    folded = np.where(upper, theta, np.pi - theta)
    vals = np.asarray(evaluator(folded, phi), dtype=float)
    vals = np.broadcast_to(vals, folded.shape).copy()
    if lower == "zero":
        vals[~upper] = 0.0
    return vals


@dataclass(frozen=True)
class AngularSpectrum:
    """Normalized angular power density: a scattering spectrum, or an element
    power pattern |A|^2 (``AntennaPattern`` is the same type)."""

    name: str
    evaluator: Callable = field(compare=False)
    support: Support = Support("full")
    lower: str = "mirror"  # lower-hemisphere rule: "mirror" | "zero"
    params: dict = field(default_factory=dict)

    def __call__(self, theta, phi) -> np.ndarray:
        return _evaluate(self.evaluator, self.lower, theta, phi)


AntennaPattern = AngularSpectrum


@dataclass(frozen=True)
class HemisphereQuadrature:
    """Product rule on the upper hemisphere.

    Gauss-Legendre panels in theta with sin(theta) folded into the weights,
    times a uniform midpoint rule in phi (exact for trigonometric polynomials
    up to the node count, which suits periodic integrands).
    """

    theta: np.ndarray
    theta_weight: np.ndarray  # includes the sin(theta) factor
    phi: np.ndarray
    phi_weight: float

    @classmethod
    def build(cls, n_theta: int = 256, n_phi: int = 512,
              theta_edges: tuple[float, ...] = ()) -> "HemisphereQuadrature":
        edges = sorted({float(e) for e in theta_edges if _EDGE_TOL < e < np.pi / 2 - _EDGE_TOL})
        bounds = [0.0, *edges, np.pi / 2]
        spans = np.diff(bounds)
        counts = np.maximum(16, np.rint(n_theta * spans / spans.sum()).astype(int))
        nodes, weights = [], []
        for (a, b), m in zip(zip(bounds[:-1], bounds[1:]), counts):
            x, w = leggauss(int(m))
            t = 0.5 * (b - a) * (x + 1.0) + a
            nodes.append(t)
            weights.append(0.5 * (b - a) * w * np.sin(t))
        phi = (np.arange(n_phi) + 0.5) * (2.0 * np.pi / n_phi)
        return cls(np.concatenate(nodes), np.concatenate(weights), phi, 2.0 * np.pi / n_phi)

    @property
    def n_nodes(self) -> int:
        return self.theta.size * self.phi.size

    def grids(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened (theta, phi) node grids, theta varying slowest."""
        t, p = np.meshgrid(self.theta, self.phi, indexing="ij")
        return t.ravel(), p.ravel()

    def weights(self) -> np.ndarray:
        """Flattened product weights matching ``grids`` ordering."""
        return np.repeat(self.theta_weight * self.phi_weight, self.phi.size)

    def integrate_upper(self, values: np.ndarray) -> float:
        """Integral over the upper hemisphere of values sampled on the grid."""
        v = np.asarray(values)
        if v.ndim == 1:
            v = v.reshape(self.theta.size, self.phi.size)
        return float(np.einsum("t,tp->", self.theta_weight, v.real) * self.phi_weight)


def quadrature_for(*objs, n_theta: int = 256, n_phi: int = 512) -> HemisphereQuadrature:
    """Quadrature with panel edges at every support boundary of the inputs."""
    edges: list[float] = []
    for obj in objs:
        if obj is not None:
            edges.extend(obj.support.theta_edges)
    return HemisphereQuadrature.build(n_theta, n_phi, tuple(edges))


def check_normalization(obj, quadrature: HemisphereQuadrature | None = None) -> float:
    """Full-sphere average (1/4pi) * integral of a spectrum or pattern.

    Equals 1 for properly normalized inputs; doubling the quadrature
    resolution moves the result by less than 1e-8 for the built-in families.
    """
    q = quadrature if quadrature is not None else quadrature_for(obj)
    t, p = q.grids()
    upper = q.integrate_upper(obj(t, p))
    lower = upper if obj.lower == "mirror" else 0.0
    return (upper + lower) / (4.0 * np.pi)


def _unit(theta, phi) -> np.ndarray:
    """The unit evaluator shared by the isotropic spectrum and the omni pattern."""
    return np.ones_like(theta)


def isotropic_spectrum() -> AngularSpectrum:
    """Unit density over the full sphere."""
    return AngularSpectrum("isotropic", _unit)


def cap_constant(theta0: float) -> float:
    """Normalizing constant of a one-sided polar cap of half-angle theta0."""
    return 2.0 / (1.0 - np.cos(theta0))


def cap_spectrum(theta0: float) -> AngularSpectrum:
    """Uniform density on the upper polar cap theta <= theta0, zero elsewhere."""
    support = Support("cap", float(theta0))
    c = cap_constant(support.theta0)
    return AngularSpectrum(
        f"cap({support.theta0:g})",
        lambda th, ph: np.where(th <= support.theta0 + _EDGE_TOL, c, 0.0),
        support=support,
        lower="zero",
        params={"theta0": support.theta0, "constant": c},
    )


def omni_pattern() -> AntennaPattern:
    """Omnidirectional element: unit power pattern over the full sphere."""
    return AntennaPattern("omni", _unit)


def matched_pattern(spectrum: AngularSpectrum) -> AntennaPattern:
    """Element pattern proportional to the given spectrum: a renamed copy."""
    return replace(spectrum, name=f"matched({spectrum.name})", params=dict(spectrum.params))


def pattern_covers(spectrum: AngularSpectrum, pattern: AntennaPattern) -> bool:
    """True when the pattern's support (cap and lower hemisphere) contains the
    spectrum's.

    Deconvolving a pattern that vanishes inside the spectrum support would
    divide by zero, so callers reject that combination up front.
    """
    ps, ss = pattern.support, spectrum.support
    upper = ps.kind == "full" or (ss.kind == "cap" and ps.theta0 >= ss.theta0 - _EDGE_TOL)
    return upper and (pattern.lower == "mirror" or spectrum.lower == "zero")


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
