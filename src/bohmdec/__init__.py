"""Phase-space dynamics of open oscillator band states.

Subpackages
-----------
phase_space
    Band states, exact and semiclassical wavefunctions, Wigner transforms.
quadratic_master
    Quadratic master-equation coefficients and Gaussian propagators.
bohm_velocity
    Ensemble velocity fields and the semiclassical decomposition.
bath_dynamics
    Explicit oscillator baths: kernels, transfer matrices, conditioning.
"""

__version__ = "0.1.0"
