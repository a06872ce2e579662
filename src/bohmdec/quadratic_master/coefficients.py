"""Coefficient containers for quadratic master equations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from ..phase_space import OscillatorSystemSpec

__all__ = [
    "MasterEqCoefficients",
    "CaldeiraLeggettParams",
    "assemble_cl_coefficients",
]

CoefficientLike = Union[float, Callable[[float], float]]


def _as_function(name: str, value: CoefficientLike) -> Callable[[float], float]:
    if callable(value):
        return value
    const = float(value)
    if not math.isfinite(const):
        raise ValueError(f"MasterEqCoefficients.{name} must be finite, got {const!r}")
    return lambda t: const


@dataclass(frozen=True)
class MasterEqCoefficients:
    """Time-dependent coefficients of a quadratic master equation.

    The phase-space drift matrix is assembled as

        K(t) = [[-h3(t), -h2(t)], [h1(t), 2 gamma(t) + h3(t)]]

    and the symmetric diffusion matrix as ``[[J11, J12], [J12, J22]]``.
    Constants may be passed in place of callables; they must be finite.
    ``time_independent`` is derived: true exactly when every coefficient was
    given as a constant.
    """

    h1: CoefficientLike
    h2: CoefficientLike
    h3: CoefficientLike
    gamma: CoefficientLike
    j11: CoefficientLike
    j12: CoefficientLike
    j22: CoefficientLike
    time_independent: bool = field(init=False)

    def __post_init__(self) -> None:
        names = ("h1", "h2", "h3", "gamma", "j11", "j12", "j22")
        all_const = all(not callable(getattr(self, n)) for n in names)
        for n in names:
            object.__setattr__(self, n, _as_function(n, getattr(self, n)))
        object.__setattr__(self, "time_independent", all_const)

    def drift_matrix(self, t: float) -> np.ndarray:
        """Drift matrix ``K(t)``."""
        return np.array(
            [
                [-self.h3(t), -self.h2(t)],
                [self.h1(t), 2.0 * self.gamma(t) + self.h3(t)],
            ]
        )

    def diffusion_matrix(self, t: float) -> np.ndarray:
        """Symmetric diffusion matrix ``J(t)``."""
        j12 = self.j12(t)
        return np.array([[self.j11(t), j12], [j12, self.j22(t)]])

    def diffusion_is_zero(self) -> bool:
        """Whether ``J`` vanishes (probed at several times if callable)."""
        return all(
            np.allclose(self.diffusion_matrix(t), 0.0, atol=0.0)
            for t in (0.0, 0.1, 0.7, 2.3)
        )


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
        values = (self.damping_rate, self.thermal_energy, self.cutoff)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"CaldeiraLeggettParams must be finite, got {values!r}")
        if self.damping_rate < 0.0 or self.thermal_energy < 0.0:
            raise ValueError("damping_rate and thermal_energy must be non-negative")
        if self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")

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
