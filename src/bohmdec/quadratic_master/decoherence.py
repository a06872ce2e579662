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
    monotone and zero at ``t = 0``, so the crossing is bracketed by doubling
    a trial time, at most 80 times, from ``1e-6 / max|K|`` until the
    determinant passes ``hbar^2``, then found by Brent's method between the
    last failing trial (``0`` when the first trial already passes) and the
    first passing one, to ``1e-12`` relative and ``1e-14`` of that
    passing trial absolute.

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

    k_scale = float(np.abs(coeffs.drift_matrix(0.0)).max())
    lo, hi = 0.0, 1e-6 / max(k_scale, 1e-12)
    for _ in range(80):
        if det_gap(hi) > 0.0:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise NumericalFailureError(
            "smearing determinant never reached hbar^2 within the scan range"
        )
    # imported here so that importing bohmdec skips its load: about 12 MB and 0.1 s
    from scipy.optimize import brentq

    # an absolute tolerance on the bracket's scale: scipy's default 2e-12
    # would dominate at the small crossing times of hot baths
    return float(brentq(det_gap, lo, hi, xtol=1e-14 * hi, rtol=1e-12))
