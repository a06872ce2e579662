"""Decoherence and smearing timescales of the damped oscillator."""

from __future__ import annotations

from dataclasses import dataclass

from .._guards import require_orbit_system
from ..phase_space.system import ClassicalOrbit, OscillatorSystemSpec
from ..quadratic_master.coefficients import CaldeiraLeggettParams

__all__ = ["TimescaleReport", "timescales"]


@dataclass(frozen=True)
class TimescaleReport:
    """Characteristic times of a damped band state.

    Attributes
    ----------
    t_c : float
        Time at which position smearing reaches the band's local wavelength,
        ``(3 m^2 lambda_B^2 / D)^(1/3)``.
    t_loc : float
        Localization time ``(hbar / (gamma k_B T))^(1/2)``.
    localization_rate : float
        ``2 m gamma k_B T / hbar^2``.
    diffusion : float
        Momentum diffusion coefficient ``2 m gamma k_B T``.
    """

    t_c: float
    t_loc: float
    localization_rate: float
    diffusion: float

    @property
    def threshold_time(self) -> float:
        """``(3/16)^(1/4) * t_loc``, where the smearing determinant crosses the
        nonnegativity bound in the weak-damping short-time regime."""
        return (3.0 / 16.0) ** 0.25 * self.t_loc

    @property
    def ratio(self) -> float:
        """``t_c / t_loc``."""
        return self.t_c / self.t_loc


def timescales(
    system: OscillatorSystemSpec,
    cl_params: CaldeiraLeggettParams,
    orbit: ClassicalOrbit,
) -> TimescaleReport:
    """Evaluate the timescale report for ``orbit`` under ``cl_params``.

    Parameters
    ----------
    system : OscillatorSystemSpec
        Must share ``orbit.system``'s mass, renormalized frequency and hbar.
    cl_params : CaldeiraLeggettParams
        Must be dissipative (positive damping and temperature).
    orbit : ClassicalOrbit
        Supplies the local wavelength ``hbar / (m omega x_max)``.

    Returns
    -------
    TimescaleReport

    Raises
    ------
    ValueError
        If ``system`` is not the orbit's oscillator, or the diffusion
        coefficient vanishes; a closed system has no finite smearing or
        localization time.
    """
    require_orbit_system(system, orbit)
    diffusion = cl_params.diffusion(system)
    if diffusion <= 0.0:
        raise ValueError(
            "timescales require dissipative parameters (gamma, k_B T > 0)"
        )
    m = system.mass
    hbar = system.hbar
    wavelength = orbit.de_broglie
    t_c = (3.0 * m**2 * wavelength**2 / diffusion) ** (1.0 / 3.0)
    t_loc = (hbar / (cl_params.damping_rate * cl_params.thermal_energy)) ** 0.5
    return TimescaleReport(
        t_c=t_c,
        t_loc=t_loc,
        localization_rate=cl_params.localization_rate(system),
        diffusion=diffusion,
    )
