"""Numerical laboratory for N-soliton solutions of the coupled Hirota system.

Exact fields are built from discrete scattering data (eigenvalues in the
upper half plane plus constant vectors) and cross-verified four independent
ways: direct substitution into the coupled equations, the zero-curvature
compatibility of the 3x3 linear pair, direct scattering of the sampled
potentials, and pseudo-spectral time propagation.
"""

from .core import (
    Grid1D,
    SampledField,
    SpectralData,
    SpectralDatum,
    SystemParams,
    ValidationError,
    phase,
    trapezoid_mass,
)

__version__ = "0.1.0"

__all__ = [
    "Grid1D",
    "SampledField",
    "SpectralData",
    "SpectralDatum",
    "SystemParams",
    "ValidationError",
    "phase",
    "trapezoid_mass",
    "__version__",
]
