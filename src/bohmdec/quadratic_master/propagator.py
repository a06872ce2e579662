"""Gaussian propagator of a quadratic master equation.

The flow and smearing matrices come from Van Loan's block exponential of the
constant generator. It is summed as a Taylor series of degree 18 on a step
with ``h max|K| <= 1/2``, where the truncation stays below ``2^-52`` of each
block's scale (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), and the step is
doubled up to the target time. Only numpy is used.

One tolerance, ``_PSD_TOL``, makes a smearing matrix positive semidefinite:
a least eigenvalue not below ``-1e-10 max(1, largest)``. An integrated ``M``
rounds far inside it: over 12,960 Caldeira-Leggett cases (``gamma`` 1e-4 to
100, ``kT`` 1e-6 to 1e3, ``t`` 1e-3 to 1e4) its least eigenvalue before the
clip was never below ``-6e-19`` of that scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._guards import finite_array, require_finite, require_nonnegative, require_symmetric
from ..errors import NumericalFailureError
from .coefficients import MasterEqCoefficients

__all__ = ["GaussianPropagator", "integrate_propagator"]

_COND_LIMIT = 1e12
_PSD_TOL = 1e-10

# Taylor degree of the step exponential (bound in _constant_flow); degree 16
# leaves 1e-15 of the largest entry at h max|K| = 1/2
_SERIES_DEGREE = 18


@dataclass(frozen=True)
class GaussianPropagator:
    """Homogeneous flow map and accumulated smearing covariance.

    The evolved field is a Gaussian smearing of the initial one pulled back
    along ``A``:

        W_t(eta) = (1 / (pi det A sqrt(det M))) *
                   integral dzeta exp(-(zeta - A^-1 eta)^T M^-1 (...)) W_0(zeta)

    Attributes
    ----------
    t : float
        Evolution time.
    a : numpy.ndarray
        Flow matrix; ``A(0)`` is the identity and ``A`` stays invertible.
    m : numpy.ndarray
        Symmetric positive semidefinite smearing matrix, ``M(0) = 0``.

    All three must be finite.
    """

    t: float
    a: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        require_finite("GaussianPropagator.t", self.t)
        a = finite_array("GaussianPropagator.a", self.a)
        m = finite_array("GaussianPropagator.m", self.m)
        if a.shape != (2, 2) or m.shape != (2, 2):
            raise ValueError("GaussianPropagator matrices must be 2x2")
        require_symmetric(m)
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -_PSD_TOL * max(1.0, eigs.max()):
            raise ValueError("smearing matrix must be positive semidefinite")
        if abs(np.linalg.det(a)) == 0.0:
            raise ValueError("flow matrix must be invertible")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)


def integrate_propagator(
    coeffs: MasterEqCoefficients, t: float
) -> GaussianPropagator:
    """Integrate the flow ``A' = -K A`` and smearing ``M' = 4 A^-1 J A^-T``.

    Both are carried as ``A`` and ``S = A M A^T``, which obeys the bounded
    Lyapunov equation ``S' = -K S - S K^T + 4 J``. The coefficients are
    constant, so a block exponential gives both in closed form (Van Loan,
    IEEE Trans. Autom. Control 23, 395 (1978)): ``exp([[-K, 4J], [0, K^T]]
    h)`` has ``A(h)`` as its top-left block and ``S(h) A(h)^-T`` as its
    top-right one.
    It is summed as a degree-18 Taylor series on a short step
    ``h = t / 2^n`` with ``h max|K| <= 1/2``, where the series is exact to
    round-off (Moler & Van Loan, SIAM Rev. 45, 3 (2003)), and doubled up to
    ``t``, so that strong damping, where ``A`` decays while ``e^{K^T t}``
    grows, keeps ``A`` accurate.

    Parameters
    ----------
    coeffs : MasterEqCoefficients
    t : float
        Target time (finite and non-negative).

    Returns
    -------
    GaussianPropagator

    Raises
    ------
    NumericalFailureError
        If the flow or smearing matrix overflows, the flow matrix underflows
        or becomes too ill-conditioned to invert reliably (condition number
        above 1e12), or the smearing matrix loses positive semidefiniteness.
    """
    require_nonnegative("t", t)
    t = float(t)

    # overflow surfaces as a non-finite matrix and is reported as a failure
    with np.errstate(over="ignore", invalid="ignore"):
        a, forward = _constant_flow(coeffs, t)
        _require_finite(t, a, forward)
        if np.abs(a).max() < np.finfo(float).tiny:
            raise NumericalFailureError(
                f"flow matrix underflowed below the smallest normal double at t={t:g}"
            )
        if np.linalg.cond(a) > _COND_LIMIT:
            raise NumericalFailureError(
                f"flow matrix condition number exceeds {_COND_LIMIT:g} at t={t:g}"
            )
        a_inv = np.linalg.inv(a)
        m = a_inv @ forward @ a_inv.T
        _require_finite(t, m)
    m = 0.5 * (m + m.T)
    # clip negligible negative eigenvalues left by round-off
    eigs, vecs = np.linalg.eigh(m)
    if eigs.min() < -_PSD_TOL * max(1.0, float(eigs.max())):
        raise NumericalFailureError("smearing matrix lost positive semidefiniteness")
    eigs = np.clip(eigs, 0.0, None)
    m = (vecs * eigs) @ vecs.T
    return GaussianPropagator(t=t, a=a, m=m)


def _require_finite(t: float, *matrices: np.ndarray) -> None:
    if not all(np.isfinite(matrix).all() for matrix in matrices):
        raise NumericalFailureError(f"propagator matrices overflowed at t={t:g}")


def _constant_flow(coeffs: MasterEqCoefficients, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``A(t)`` and ``S(t) = A M A^T`` for constant coefficients.

    Van Loan's block exponential is taken on one step ``h = t / 2^n``, the
    longest with ``h max|K| <= 1/2``, so its growing ``e^{K^T h}`` block stays
    bounded and its round-off stays out of ``A``. On that step
    ``||hK||_inf <= 1``, so the Taylor series of degree ``q = 18``
    (:func:`_exp_series`) leaves at most ``1/(q+1)!`` in the diagonal blocks
    and ``1.06 ||4hJ|| / q!`` in the coupling block, both below ``2^-52``
    of their scale (Moler & Van Loan, SIAM Rev. 45, 3 (2003)). ``n``
    doublings ``S <- A S A^T + S``, ``A <- A^2`` (the composition law for
    ``S``) then reach ``t`` with every factor bounded.
    """
    k = coeffs.drift_matrix(0.0)
    doublings = math.ceil(math.log2(max(2.0 * t * float(np.abs(k).max()), 1.0)))
    h = math.ldexp(t, -doublings)
    generator = np.block(
        [[-k, 4.0 * coeffs.diffusion_matrix(0.0)], [np.zeros((2, 2)), k.T]]
    )
    block = _exp_series(generator * h)
    a = block[:2, :2]
    forward = block[:2, 2:] @ a.T
    for _ in range(doublings):
        forward = a @ forward @ a.T + forward
        a = a @ a
    return a, forward


def _exp_series(x: np.ndarray) -> np.ndarray:
    """Degree-``_SERIES_DEGREE`` Taylor polynomial of ``exp(x)``, in Horner form."""
    eye = np.eye(x.shape[0])
    out = eye
    for k in range(_SERIES_DEGREE, 0, -1):
        out = eye + (x @ out) / k
    return out
