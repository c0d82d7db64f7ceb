"""The full-sphere average of a spectrum or pattern, the reference that the
normalization tests of several modules share."""

import numpy as np

from holomimo import quadrature_for


def sphere_average(density, quadrature=None) -> float:
    """(1/4pi) * integral of a density over the sphere, which is 1 for a
    normalized one: the upper hemisphere on ``quadrature_for`` (or the rule
    given), doubled for a mirrored lower hemisphere."""
    t, p, w = quadrature if quadrature is not None else quadrature_for(density)
    upper = float(w @ density(t, p))
    lower = upper if density.lower == "mirror" else 0.0
    return (upper + lower) / (4.0 * np.pi)
