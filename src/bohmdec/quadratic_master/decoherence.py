"""Short-time position dephasing and the field nonnegativity threshold."""

from __future__ import annotations

import numpy as np

from .._guards import finite_array, require_nonnegative
from ..errors import DomainValidityError, NumericalFailureError
from ..phase_space import OscillatorSystemSpec
from .coefficients import CaldeiraLeggettParams, MasterEqCoefficients
from .propagator import integrate_propagator

__all__ = ["position_decoherence_factor", "nonnegativity_threshold"]

_SHORT_TIME_LIMIT = 0.1


def position_decoherence_factor(
    cl_params: CaldeiraLeggettParams,
    system: OscillatorSystemSpec,
    t: float,
    x: np.ndarray,
    x_prime: np.ndarray,
) -> np.ndarray:
    """Short-time suppression of position coherences.

    ``exp(-Lambda t (x - x')^2)`` with ``Lambda = D / hbar^2``; valid only
    while both the oscillation and the damping are slow compared to the
    elapsed time.

    Parameters
    ----------
    cl_params : CaldeiraLeggettParams
    system : OscillatorSystemSpec
    t : float
        Elapsed time, finite and non-negative; requires ``omega t < 0.1``
        and ``gamma t < 0.1``.
    x, x_prime : array_like
        Finite coordinate pairs of the coherence.

    Raises
    ------
    ValueError
        For a non-finite or negative ``t``, or non-finite ``x`` or ``x_prime``.
    DomainValidityError
        Outside the short-time window.
    """
    require_nonnegative("t", t)
    # a scalar pair keeps its 0-d shape
    x = finite_array("x", x).reshape(np.shape(x))
    x_prime = finite_array("x_prime", x_prime).reshape(np.shape(x_prime))
    w = system.renormalized_frequency
    if w * t >= _SHORT_TIME_LIMIT or cl_params.damping_rate * t >= _SHORT_TIME_LIMIT:
        raise DomainValidityError(
            "position_decoherence_factor is a short-time form; needs "
            f"omega*t < {_SHORT_TIME_LIMIT} and gamma*t < {_SHORT_TIME_LIMIT} "
            f"(got {w * t:g} and {cl_params.damping_rate * t:g})"
        )
    lam = cl_params.localization_rate(system)
    return np.exp(-lam * t * (x - x_prime) ** 2)


def nonnegativity_threshold(
    coeffs: MasterEqCoefficients,
    system: OscillatorSystemSpec,
) -> float | None:
    """Earliest time at which the smearing determinant reaches ``hbar^2``.

    Past this time the propagated field of any initial state is bounded
    below by (numerically) zero. The determinant of the smearing matrix is
    monotone and zero at ``t = 0``, so the crossing is bracketed within a
    factor of two from the drift's time scale ``1 / max|K|`` (1 without
    drift): a passing trial is halved while half of it passes ``hbar^2``
    (``t = 0`` never does), a failing one doubled, at most 80 times, until it
    passes. Brent's method finds it to ``4 eps`` relative and ``eps`` of
    that trial absolute, so to a few ulps however short the crossing time.

    Parameters
    ----------
    coeffs : MasterEqCoefficients
    system : OscillatorSystemSpec

    Returns
    -------
    float or None
        The crossing time, or ``None`` when the equation has no diffusion
        (the determinant never grows).
    """
    if coeffs.diffusion_is_zero():
        return None
    target = system.hbar**2

    def det_gap(t: float) -> float:
        prop = integrate_propagator(coeffs, t)
        return float(np.linalg.det(prop.m)) - target

    hi = 1.0 / (float(np.abs(coeffs.drift_matrix(0.0)).max()) or 1.0)
    if det_gap(hi) > 0.0:
        while det_gap(0.5 * hi) > 0.0:
            hi *= 0.5
    else:
        for _ in range(80):
            hi *= 2.0
            if det_gap(hi) > 0.0:
                break
        else:
            raise NumericalFailureError(
                "smearing determinant never reached hbar^2 within the scan range"
            )
    # imported here so that importing bohmdec skips its load: about 12 MB and 0.1 s
    from scipy.optimize import brentq

    # scipy's least rtol, and an xtol on the bracket's scale (2e-12 swamps hot baths)
    return float(brentq(det_gap, 0.5 * hi, hi, xtol=np.finfo(float).eps * hi))
