"""Explicit oscillator environments: exact propagation and conditioning.

Everything here treats the environment as harmonic modes coupled bilinearly
to the central oscillator. A finite bath and the center form one quadratic
Hamiltonian, so :func:`solve_g_kernel` diagonalizes its mass-weighted
Hessian once, and the normal modes give the response function and every
transfer block in closed form at any time (:func:`exact_bath_matrices`).
The reduced smearing matrix, the reversibility residuals, and the
slice-conditioned kernel and velocity build on those blocks. The ohmic
continuum, which has no normal modes, takes its response function from a
Volterra march over a closed-form memory kernel. Spectral descriptions,
mode discretization, and thermal coherent-state sampling round out the
toolkit.
"""

from .classicality import (
    ClassicalityReport,
    classicality_report,
    conditional_smearing_time,
)
from .conditional import (
    ConditionalKernel,
    cl_m_tilde_asymptote,
    cl_sigma3_squared_asymptote,
    conditional_kernel,
    conditional_velocity,
    m_tilde_matrix,
    sigma3_squared,
)
from .matrices import (
    BathPropagators,
    exact_bath_matrices,
    reduced_M_from_bath,
    reversibility_residuals,
    weak_coupling_matrices,
)
from .sampling import CoherentBathSample, sample_bath
from .spectral import (
    BathSpec,
    SpectralDensity,
    counterterm_bare_frequency,
    discretize_spectral_density,
)
from .volterra import GKernelTable, solve_g_kernel

__all__ = [
    "BathPropagators",
    "BathSpec",
    "ClassicalityReport",
    "CoherentBathSample",
    "ConditionalKernel",
    "GKernelTable",
    "SpectralDensity",
    "cl_m_tilde_asymptote",
    "cl_sigma3_squared_asymptote",
    "classicality_report",
    "conditional_kernel",
    "conditional_smearing_time",
    "conditional_velocity",
    "counterterm_bare_frequency",
    "discretize_spectral_density",
    "exact_bath_matrices",
    "m_tilde_matrix",
    "reduced_M_from_bath",
    "reversibility_residuals",
    "sample_bath",
    "sigma3_squared",
    "solve_g_kernel",
    "weak_coupling_matrices",
]
