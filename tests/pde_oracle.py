"""Finite-difference oracle for the quadratic master equation in phase space.

Independent of the Gaussian propagator route: the equation

    dW/dt = sum_rs K_rs d_r (eta_s W) + sum_rs J_rs d^2_rs W

is stepped with classical RK4 using fifth-order upwind-biased advection
stencils and fourth-order centered diffusion stencils on the field's own
grid, with zero inflow at the edges.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from bohmdec.errors import NumericalFailureError
from bohmdec.phase_space import WignerField
from bohmdec.quadratic_master import MasterEqCoefficients

__all__ = ["pde_oracle_evolve"]

# k -> the field shifted by k cells along one axis
_Taps = Callable[[int], np.ndarray]


def _taps(values: np.ndarray, axis: int, reach: int = 3) -> _Taps:
    """Map ``k`` (``|k| <= reach``) to ``values[i + k]`` along ``axis``, zero past the edges.

    One zero-padded copy serves every tap; each tap is a view into it.
    """
    n = values.shape[axis]
    lead = (slice(None),) * axis
    padded = np.zeros(values.shape[:axis] + (n + 2 * reach,) + values.shape[axis + 1 :])
    padded[lead + (slice(reach, reach + n),)] = values
    return lambda k: padded[lead + (slice(reach + k, reach + k + n),)]


def _biased_first(s: _Taps, step: float, leftward: bool) -> np.ndarray:
    """Fifth-order upwind-biased first derivative from the taps ``s``.

    ``leftward`` selects the stencil reaching three points upstream to the
    left (for flow arriving from the left); the mirrored stencil covers the
    other wind direction.
    """
    if leftward:
        num = (
            -2.0 * s(-3) + 15.0 * s(-2) - 60.0 * s(-1)
            + 20.0 * s(0) + 30.0 * s(1) - 3.0 * s(2)
        )
    else:
        num = (
            2.0 * s(3) - 15.0 * s(2) + 60.0 * s(1)
            - 20.0 * s(0) - 30.0 * s(-1) + 3.0 * s(-2)
        )
    return num / (60.0 * step)


def _centered_second(s: _Taps, step: float) -> np.ndarray:
    return (-s(-2) + 16.0 * s(-1) - 30.0 * s(0) + 16.0 * s(1) - s(2)) / (12.0 * step**2)


def _centered_first(s: _Taps, step: float) -> np.ndarray:
    return (s(-2) - 8.0 * s(-1) + 8.0 * s(1) - s(2)) / (12.0 * step)


def pde_oracle_evolve(
    coeffs: MasterEqCoefficients,
    field: WignerField,
    t: float,
    steps: int,
) -> WignerField:
    """Evolve a Wigner field by direct finite differences.

    Parameters
    ----------
    coeffs : MasterEqCoefficients
    field : WignerField
        Initial samples.
    t : float
        Total evolution time.
    steps : int
        Number of RK4 steps; the caller owns the stability trade-off.

    Returns
    -------
    WignerField

    Raises
    ------
    NumericalFailureError
        If the field's L1 mass grows beyond ten times its initial value,
        indicating instability.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    x = field.x_grid[:, None]
    p = field.p_grid[None, :]
    dx = field.dx
    dp = field.dp
    w = field.values.copy()
    l1_0 = float(np.abs(w).sum())
    dt = t / steps

    def rhs(s: float, w_cur: np.ndarray) -> np.ndarray:
        k = coeffs.drift_matrix(s)
        j = coeffs.diffusion_matrix(s)
        f_x = k[0, 0] * x + k[0, 1] * p
        f_p = k[1, 0] * x + k[1, 1] * p
        s_x, s_p = _taps(w_cur, 0), _taps(w_cur, 1)
        # d_x(f_x W): upwind bias follows the characteristic speed -f_x
        dwx = np.where(
            f_x < 0.0,
            _biased_first(s_x, dx, leftward=True),
            _biased_first(s_x, dx, leftward=False),
        )
        dwp = np.where(
            f_p < 0.0,
            _biased_first(s_p, dp, leftward=True),
            _biased_first(s_p, dp, leftward=False),
        )
        out = f_x * dwx + f_p * dwp + (k[0, 0] + k[1, 1]) * w_cur
        if j[0, 0] != 0.0:
            out += j[0, 0] * _centered_second(s_x, dx)
        if j[1, 1] != 0.0:
            out += j[1, 1] * _centered_second(s_p, dp)
        if j[0, 1] != 0.0:
            out += 2.0 * j[0, 1] * _centered_first(
                _taps(_centered_first(s_x, dx), 1, reach=2), dp
            )
        return out

    s = field.time_stamp
    for step in range(steps):
        k1 = rhs(s, w)
        k2 = rhs(s + 0.5 * dt, w + 0.5 * dt * k1)
        k3 = rhs(s + 0.5 * dt, w + 0.5 * dt * k2)
        k4 = rhs(s + dt, w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += dt
        if step % 50 == 49 or step == steps - 1:
            if float(np.abs(w).sum()) > 10.0 * l1_0:
                raise NumericalFailureError(
                    "finite-difference evolution is unstable (L1 mass grew "
                    "beyond 10x initial)"
                )

    return WignerField(
        x_grid=field.x_grid,
        p_grid=field.p_grid,
        values=w,
        time_stamp=field.time_stamp + t,
        notes=tuple(field.notes) + (f"pde_oracle(steps={steps})",),
    )
