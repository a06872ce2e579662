"""Gaussian propagator of a quadratic master equation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ..errors import NumericalFailureError
from .coefficients import MasterEqCoefficients

__all__ = ["GaussianPropagator", "integrate_propagator", "compose"]

_COND_LIMIT = 1e12
# Relative tolerance of the adaptive Runge-Kutta integration.
_RTOL = 1e-9


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
    """

    t: float
    a: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        m = np.asarray(self.m, dtype=float)
        if a.shape != (2, 2) or m.shape != (2, 2):
            raise ValueError("GaussianPropagator matrices must be 2x2")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("smearing matrix must be symmetric")
        m = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10 * max(1.0, eigs.max()):
            raise ValueError("smearing matrix must be positive semidefinite")
        if abs(np.linalg.det(a)) == 0.0:
            raise ValueError("flow matrix must be invertible")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "m", m)


def integrate_propagator(
    coeffs: MasterEqCoefficients, t: float
) -> GaussianPropagator:
    """Integrate the flow ``A' = -K A`` and smearing ``M' = 4 A^-1 J A^-T``.

    Parameters
    ----------
    coeffs : MasterEqCoefficients
    t : float
        Target time (non-negative).

    Returns
    -------
    GaussianPropagator

    Raises
    ------
    NumericalFailureError
        If the flow matrix becomes too ill-conditioned to invert reliably
        (condition number above 1e12) or the integrator fails.
    """
    if t < 0.0:
        raise ValueError("propagator time must be non-negative")
    if t == 0.0:
        return GaussianPropagator(t=0.0, a=np.eye(2), m=np.zeros((2, 2)))

    if coeffs.time_independent and coeffs.diffusion_is_zero():
        # purely unitary (or damped but noiseless) constant flow
        a = expm(-coeffs.drift_matrix(0.0) * t)
        return GaussianPropagator(t=t, a=a, m=np.zeros((2, 2)))

    # Integrating M directly is stiff whenever the flow is strongly damped:
    # its equation carries A^-1 twice and blows up exponentially.  The
    # substitution S = A M A^T turns it into the bounded Lyapunov equation
    # S' = -K S - S K^T + 4 J, and A is only inverted once at the end.
    def rhs(s: float, y: np.ndarray) -> np.ndarray:
        a = y[:4].reshape(2, 2)
        forward = y[4:].reshape(2, 2)
        k = coeffs.drift_matrix(s)
        j = coeffs.diffusion_matrix(s)
        da = -k @ a
        ds = -k @ forward - forward @ k.T + 4.0 * j
        return np.concatenate([da.ravel(), ds.ravel()])

    y0 = np.concatenate([np.eye(2).ravel(), np.zeros(4)])
    sol = solve_ivp(
        rhs,
        (0.0, t),
        y0,
        method="DOP853",
        rtol=_RTOL,
        atol=_RTOL * 1e-3,
        dense_output=False,
    )
    if not sol.success:
        raise NumericalFailureError(f"propagator integration failed: {sol.message}")
    a = sol.y[:4, -1].reshape(2, 2)
    forward = sol.y[4:, -1].reshape(2, 2)
    if np.linalg.cond(a) > _COND_LIMIT:
        raise NumericalFailureError(
            f"flow matrix condition number exceeds {_COND_LIMIT:g} at t={t:g}"
        )
    a_inv = np.linalg.inv(a)
    m = a_inv @ forward @ a_inv.T
    m = 0.5 * (m + m.T)
    # clip negligible negative eigenvalues produced by the integrator
    eigs, vecs = np.linalg.eigh(m)
    floor = -1e-12 * max(1.0, float(eigs.max()))
    if eigs.min() < floor:
        raise NumericalFailureError("smearing matrix lost positive semidefiniteness")
    eigs = np.clip(eigs, 0.0, None)
    m = (vecs * eigs) @ vecs.T
    return GaussianPropagator(t=t, a=a, m=m)


def compose(first: GaussianPropagator, second: GaussianPropagator) -> GaussianPropagator:
    """Propagator equivalent to applying ``first`` then ``second``.

    The flow matrices multiply and the later smearing is pulled back through
    the earlier flow: ``A = A2 A1``, ``M = M1 + A1^-1 M2 A1^-T``.
    """
    a1_inv = np.linalg.inv(first.a)
    return GaussianPropagator(
        t=first.t + second.t,
        a=second.a @ first.a,
        m=first.m + a1_inv @ second.m @ a1_inv.T,
    )
