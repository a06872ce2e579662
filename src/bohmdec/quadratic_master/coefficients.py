"""Coefficient containers for quadratic master equations."""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .._guards import require_finite, require_nonnegative, require_positive
from ..phase_space import OscillatorSystemSpec

__all__ = [
    "MasterEqCoefficients",
    "CaldeiraLeggettParams",
    "assemble_cl_coefficients",
]


@dataclass(frozen=True)
class MasterEqCoefficients:
    """Constant coefficients of a quadratic master equation.

    The phase-space drift matrix is assembled as

        K = [[-h3, -h2], [h1, 2 gamma + h3]]

    and the symmetric diffusion matrix as ``[[J11, J12], [J12, J22]]``.
    Each coefficient is stored as a finite float; a callable is rejected.
    """

    h1: float
    h2: float
    h3: float
    gamma: float
    j11: float
    j12: float
    j22: float

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if callable(value):
                raise TypeError(
                    f"MasterEqCoefficients.{f.name} must be a constant, got a callable"
                )
            const = float(value)
            require_finite(f"MasterEqCoefficients.{f.name}", const)
            object.__setattr__(self, f.name, const)

    def drift_matrix(self, t: float) -> np.ndarray:
        """Drift matrix ``K``, the same at every ``t``."""
        return np.array(
            [
                [-self.h3, -self.h2],
                [self.h1, 2.0 * self.gamma + self.h3],
            ]
        )

    def diffusion_matrix(self, t: float) -> np.ndarray:
        """Symmetric diffusion matrix ``J``, the same at every ``t``."""
        return np.array([[self.j11, self.j12], [self.j12, self.j22]])

    def diffusion_is_zero(self) -> bool:
        """Whether every entry of ``J`` is exactly zero."""
        return self.j11 == 0.0 and self.j12 == 0.0 and self.j22 == 0.0


@dataclass(frozen=True)
class CaldeiraLeggettParams:
    """High-temperature ohmic environment parameters.

    Attributes
    ----------
    damping_rate : float
        Momentum relaxation rate ``gamma``; non-negative.
    thermal_energy : float
        ``k_B T`` in energy units; non-negative.
    cutoff : float
        Spectral cutoff frequency ``Omega``; positive.
    """

    damping_rate: float
    thermal_energy: float
    cutoff: float

    def __post_init__(self) -> None:
        for name in ("damping_rate", "thermal_energy"):
            require_nonnegative(f"CaldeiraLeggettParams.{name}", getattr(self, name))
        require_positive("CaldeiraLeggettParams.cutoff", self.cutoff)

    def diffusion(self, system: OscillatorSystemSpec) -> float:
        """Momentum diffusion coefficient ``D = 2 m gamma k_B T``.

        Recomputed on demand so it can never go stale against the fields.
        """
        return 2.0 * system.mass * self.damping_rate * self.thermal_energy

    def localization_rate(self, system: OscillatorSystemSpec) -> float:
        """Spatial dephasing rate ``Lambda = D / hbar^2``."""
        return self.diffusion(system) / system.hbar**2


def assemble_cl_coefficients(
    system: OscillatorSystemSpec, cl_params: CaldeiraLeggettParams
) -> MasterEqCoefficients:
    """Constant coefficients of the high-temperature quadratic master equation.

    Parameters
    ----------
    system : OscillatorSystemSpec
        Uses the renormalized frequency.
    cl_params : CaldeiraLeggettParams

    Returns
    -------
    MasterEqCoefficients
        With ``K = [[0, -1/m], [m omega^2, 2 gamma]]`` and diffusion only in
        the momentum-momentum entry, ``J22 = D``.
    """
    m = system.mass
    w = system.renormalized_frequency
    return MasterEqCoefficients(
        h1=m * w**2,
        h2=1.0 / m,
        h3=0.0,
        gamma=cl_params.damping_rate,
        j11=0.0,
        j12=0.0,
        j22=cl_params.diffusion(system),
    )
