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

import numpy as np

from .._guards import finite_array, require_orbit_system, require_positive
from ..bohm_velocity import MInverseParams, TimescaleReport, ValidityReport, timescales
from ..bohm_velocity.decomposition import _branch_widths, _require_interior
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

    Solves ``omega gamma t^2 ln(cutoff t) = lambda_B / x_max``. The left-hand
    side is the leading growth of the conditional position spread in orbit
    units; the right-hand side is the interference scale it must beat. With
    ``u = cutoff t`` the equation reads ``u^2 ln u = K``, where
    ``K = cutoff^2 lambda_B / (x_max omega gamma)``, whose root is
    ``u = sqrt(2K / W_0(2K))`` on the principal branch of the Lambert W
    function (:func:`_lambert_w`). The root must lie in the window
    ``[10/cutoff, 1/(10 gamma)]``, where the growth law holds.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If ``system`` is not the orbit's oscillator, or the damping rate is
        not positive.
    NumericalFailureError
        If the window is empty or the root lies outside it.
    """
    require_orbit_system(system, orbit)
    omega = system.renormalized_frequency
    gamma = cl_params.damping_rate
    if gamma <= 0.0:
        raise ValueError(f"conditional smearing time needs damping_rate > 0, got {gamma:g}")
    cutoff = cl_params.cutoff
    lo = 10.0 / cutoff
    hi = 1.0 / (10.0 * gamma)
    if lo >= hi:
        raise NumericalFailureError(
            "conditional smearing-time window is empty: 10/cutoff = "
            f"{lo:g} is not below 1/(10 gamma) = {hi:g}"
        )
    twice_k = 2.0 * cutoff**2 * orbit.de_broglie / (orbit.amplitude * omega * gamma)
    t = float(np.sqrt(twice_k / _lambert_w(float(twice_k)))) / cutoff
    if not lo <= t <= hi:
        raise NumericalFailureError(
            f"no conditional smearing-time crossing in [{lo:g}, {hi:g}]: "
            f"the root is at t = {t:g}"
        )
    return t


def _lambert_w(z: float) -> float:
    """Principal branch ``W_0(z)`` of the Lambert W function at a float ``z > 0``:
    Halley's iteration on ``w e^w = z`` (Corless et al., Adv. Comput. Math. 5, 329
    (1996), eq. 5.9) from ``ln(1 + z)``, until a step stops shrinking (at most
    eight steps from ``z = 1e-3`` to ``1e300``, within 1 ulp of mpmath)."""
    w, last = np.log1p(z), np.inf
    while True:
        e = np.exp(w)
        f = w * e - z
        step = f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if not abs(step) < abs(last):
            return w
        w, last = w - step, step


@dataclass(frozen=True)
class ClassicalityReport(ValidityReport):
    """Margins of the slice-conditioned classicality inequalities.

    ``margins``, ``passed`` (every margin at least 1) and ``strict_passed``
    (at least 10) read as in :class:`ValidityReport`.

    Attributes
    ----------
    time : float
    position : float
        Probe position the momentum-scale margins were evaluated at.
    conditional_smearing_time : float
        Onset time of conditional smearing for these parameters.
    timescales : TimescaleReport
        Unconditioned localization timescales, for the ordering check.
    """

    time: float
    position: float
    conditional_smearing_time: float
    timescales: TimescaleReport

    @property
    def ordering_ok(self) -> bool:
        """Whether unconditioned localization precedes conditional smearing."""
        return self.timescales.t_c < self.conditional_smearing_time


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
        Must share ``orbit.system``'s mass, renormalized frequency and hbar
        (else ``ValueError``).
    orbit : ClassicalOrbit
    cl_params : CaldeiraLeggettParams
        Ohmic description of the environment.
    t : float
        Must be finite and positive.
    x : float, optional
        Probe position strictly inside the turning points (else
        ``DomainValidityError``; NaN or inf raises ``ValueError``); defaults
        to half the orbit amplitude.

    Returns
    -------
    ClassicalityReport
    """
    require_orbit_system(system, orbit)
    require_positive("t", t)
    if x is None:
        x = 0.5 * orbit.amplitude
    probe = finite_array("x", x)
    _require_interior(probe, orbit)

    spectral = SpectralDensity.from_ohmic(
        system, cl_params.damping_rate, cl_params.cutoff
    )
    minv = MInverseParams.from_m_matrix(m_tilde_matrix(spectral, system, t))
    widths = _branch_widths(minv, orbit, probe)
    p_cl = float(orbit.classical_momentum(x))
    slice_width = float(np.sqrt(sigma3_squared(spectral, system, t)))

    omega = system.renormalized_frequency
    gamma = cl_params.damping_rate
    log_cut = float(np.log(cl_params.cutoff * t))
    smear_growth = omega * gamma * t * t * log_cut
    orbit_ratio = orbit.amplitude / orbit.de_broglie

    margins = {
        "interference_suppression": float(widths.sigma_1[0]) * p_cl,
        "branch_width_plus": float(widths.sigma_plus[0]) * p_cl,
        "branch_width_minus": float(widths.sigma_minus[0]) * p_cl,
        "slice_precision": slice_width * p_cl,
        "past_conditional_smearing_time": smear_growth * orbit_ratio,
        "cutoff_window": (
            omega * orbit_ratio / (gamma * log_cut) if log_cut > 0.0 else 0.0
        ),
    }
    return ClassicalityReport(
        margins=margins,
        time=float(t),
        position=float(x),
        timescales=timescales(system, cl_params, orbit),
        conditional_smearing_time=conditional_smearing_time(system, orbit, cl_params),
    )
