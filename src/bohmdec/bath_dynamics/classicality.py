"""Classicality diagnostics for slice-conditioned dynamics.

The conditioned distribution tracks the classical branches only once enough
which-path information has leaked into the modes and the slice pins the
momentum more finely than the branch separation. This module locates the
onset time for the ohmic density and reports the margins of the full
inequality set at a given time and position, in the same margin convention
as the reduced-propagator validity window: a margin of 1 is the boundary,
10 the conventional reading of "much greater than".
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np
from scipy.optimize import brentq

from ..bohm_velocity import (
    MInverseParams,
    SemiclassicalDecomposition,
    TimescaleReport,
    timescales,
)
from ..errors import NumericalFailureError
from ..phase_space import ClassicalOrbit, OscillatorSystemSpec
from ..quadratic_master import CaldeiraLeggettParams
from .conditional import m_tilde_matrix, sigma3_squared
from .spectral import SpectralDensity

__all__ = [
    "ClassicalityReport",
    "classicality_report",
    "conditional_smearing_time",
]


def conditional_smearing_time(
    system: OscillatorSystemSpec,
    orbit: ClassicalOrbit,
    cl_params: CaldeiraLeggettParams,
) -> float:
    """Time at which conditional smearing first resolves the orbit.

    Solves ``omega gamma t^2 ln(cutoff t) = lambda_B / x_max`` on
    ``[10/cutoff, 1/(10 gamma)]`` with Brent's method. The left-hand side is
    the leading growth of the conditional position spread in orbit units;
    the right-hand side is the interference scale it must beat. Its
    derivative ``omega gamma t (2 ln(cutoff t) + 1)`` is positive on the
    window, so a sign change at the two ends brackets the only root.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If the damping rate is not positive.
    NumericalFailureError
        If the window is empty or the residual does not change sign across
        it.
    """
    omega = system.renormalized_frequency
    gamma = cl_params.damping_rate
    if gamma <= 0.0:
        raise ValueError(f"conditional smearing time needs damping_rate > 0, got {gamma:g}")
    cutoff = cl_params.cutoff
    target = orbit.de_broglie / orbit.amplitude

    def residual(t: float) -> float:
        return omega * gamma * t * t * np.log(cutoff * t) - target

    lo = 10.0 / cutoff
    hi = 1.0 / (10.0 * gamma)
    if lo >= hi:
        raise NumericalFailureError(
            "conditional smearing-time window is empty: 10/cutoff = "
            f"{lo:g} is not below 1/(10 gamma) = {hi:g}"
        )
    ends = residual(lo), residual(hi)
    if not (ends[0] <= 0.0 < ends[1]):
        raise NumericalFailureError(
            "no conditional smearing-time crossing in "
            f"[{lo:g}, {hi:g}]: residual spans [{min(ends):g}, {max(ends):g}]"
        )
    # the root is at least lo, so both tolerances are relative, near rounding
    eps = np.finfo(float).eps
    return float(brentq(residual, lo, hi, xtol=1e-15 * lo, rtol=4.0 * eps))


@dataclass(frozen=True)
class ClassicalityReport:
    """Margins of the slice-conditioned classicality inequalities.

    Attributes
    ----------
    time : float
    position : float
        Probe position the momentum-scale margins were evaluated at.
    margins : Mapping[str, float]
        Each entry is the ratio by which its inequality holds; 1 is the
        boundary.
    passed : bool
        Every margin at least 1.
    strict_passed : bool
        Every margin at least 10.
    conditional_smearing_time : float
        Onset time of conditional smearing for these parameters.
    timescales : TimescaleReport
        Unconditioned localization timescales, for the ordering check.
    ordering_ok : bool
        Whether unconditioned localization precedes conditional smearing.
    """

    time: float
    position: float
    margins: Mapping[str, float]
    passed: bool
    strict_passed: bool
    conditional_smearing_time: float
    timescales: TimescaleReport
    ordering_ok: bool


def classicality_report(
    system: OscillatorSystemSpec,
    orbit: ClassicalOrbit,
    cl_params: CaldeiraLeggettParams,
    t: float,
    x: float | None = None,
) -> ClassicalityReport:
    """Evaluate the conditioned-classicality margins at time ``t``.

    Parameters
    ----------
    system : OscillatorSystemSpec
    orbit : ClassicalOrbit
    cl_params : CaldeiraLeggettParams
        Ohmic description of the environment.
    t : float
        Must be positive.
    x : float, optional
        Probe position strictly inside the turning points; defaults to half
        the orbit amplitude.

    Returns
    -------
    ClassicalityReport
    """
    if t <= 0.0:
        raise ValueError("classicality margins are defined for t > 0")
    if x is None:
        x = 0.5 * orbit.amplitude
    if abs(x) >= orbit.amplitude:
        raise ValueError(
            "probe position must lie strictly inside the turning points"
        )

    spectral = SpectralDensity.from_ohmic(
        system, cl_params.damping_rate, cl_params.cutoff
    )
    minv = MInverseParams.from_m_matrix(m_tilde_matrix(spectral, system, t))
    decomp = SemiclassicalDecomposition(minv, orbit)
    p_cl = float(orbit.classical_momentum(x))
    slice_width = float(np.sqrt(sigma3_squared(spectral, system, t)))

    omega = system.renormalized_frequency
    gamma = cl_params.damping_rate
    log_cut = float(np.log(cl_params.cutoff * t))
    smear_growth = omega * gamma * t * t * log_cut
    orbit_ratio = orbit.amplitude / orbit.de_broglie

    margins = {
        "interference_suppression": float(decomp.sigma_1(x)[0]) * p_cl,
        "branch_width_plus": float(decomp.sigma_plus(x)[0]) * p_cl,
        "branch_width_minus": float(decomp.sigma_minus(x)[0]) * p_cl,
        "slice_precision": slice_width * p_cl,
        "past_conditional_smearing_time": smear_growth * orbit_ratio,
        "cutoff_window": (
            omega * orbit_ratio / (gamma * log_cut) if log_cut > 0.0 else 0.0
        ),
    }
    values = list(margins.values())
    ts = timescales(system, cl_params, orbit)
    onset = conditional_smearing_time(system, orbit, cl_params)
    return ClassicalityReport(
        time=float(t),
        position=float(x),
        margins=MappingProxyType(margins),
        passed=all(v >= 1.0 for v in values),
        strict_passed=all(v >= 10.0 for v in values),
        conditional_smearing_time=onset,
        timescales=ts,
        ordering_ok=ts.t_c < onset,
    )
