"""Physically grounded numerics for dense ("holographic") planar MIMO arrays.

Mutual coupling acts as a deconvolution of the element pattern and correlated
fading as a convolution with the angular spectrum; this package builds both
operators, the wavenumber-domain (Fourier) channel model that diagonalizes
them at large apertures, and the capacity analysis on top.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .geometry import ArrayGeometry, build_ula, build_upa, geometry_from_config
from .spectra import (AngularSpectrum, AntennaPattern, cap_constant, cap_spectrum,
                      hemisphere_quadrature, isotropic_spectrum, matched_pattern, omni_pattern,
                      pattern_covers, quadrature_for)
from .coupling import (Kernel, SingularCouplingError, coupling_closed_form, coupling_general,
                       regularize, spd_inv_sqrt, spd_sqrt)
from .fourier import (FourierBasis, WavenumberLattice, build_fourier_basis, build_lattice,
                      fourier_matrix, variances_coupled, variances_uncoupled,
                      write_variances_csv)
from .channel import (ChannelModel, CorrelationMatrix, coupled_correlation_exact,
                      exact_correlation, exact_model, exact_spectra, fourier_model, iid_model,
                      whitened_eigenvalues)
from .capacity import BoundCheck, CapacityCurve, ergodic_capacity, low_snr_bound_check

# the names imported above, without the submodules that importing them binds
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
