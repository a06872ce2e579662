"""Quadratic master equations: coefficients, propagators, field evolution."""

from .apply import propagate_wigner
from .coefficients import (
    CaldeiraLeggettParams,
    MasterEqCoefficients,
    assemble_cl_coefficients,
)
from .decoherence import nonnegativity_threshold, position_decoherence_factor
from .propagator import GaussianPropagator, integrate_propagator

__all__ = [
    "CaldeiraLeggettParams",
    "GaussianPropagator",
    "MasterEqCoefficients",
    "assemble_cl_coefficients",
    "integrate_propagator",
    "nonnegativity_threshold",
    "position_decoherence_factor",
    "propagate_wigner",
]
