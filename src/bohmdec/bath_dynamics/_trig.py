"""Cancellation-safe trigonometric combinations used across the bath modules.

The response integrands repeatedly need ``u - sin(u)``, ``sin(u) - u cos(u)``
and ``1 - cos(u)``, all of which lose their leading digits for small ``u``
when evaluated literally, plus the two-frequency ratio family

    (a sin(b tau) - b sin(a tau)) / (a^2 - b^2)

whose ``a -> b`` limit is finite but numerically indeterminate, and the
entire cosine integral ``Cin`` that the ohmic spectral integrals reduce to.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from scipy.special import sici

_SERIES_CUT = 0.05
_DEGENERATE_CUT = 1e-8
_CIN_CUT = 0.5
# Taylor coefficients of Cin in x^2, x^4, ..., x^16: (-1)^(k+1) / (2k (2k)!).
_CIN_SERIES = np.array([(-1) ** (k + 1) / (2 * k * factorial(2 * k)) for k in range(1, 9)])


def t_minus_sin(u: np.ndarray) -> np.ndarray:
    """``u - sin(u)`` without small-argument cancellation."""
    u = np.asarray(u, dtype=float)
    u2 = u * u
    series = (u * u2 / 6.0) * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0 * (1.0 - u2 / 72.0)))
    return np.where(np.abs(u) < _SERIES_CUT, series, u - np.sin(u))


def sin_minus_u_cos(u: np.ndarray) -> np.ndarray:
    """``sin(u) - u cos(u)`` without small-argument cancellation."""
    u = np.asarray(u, dtype=float)
    u2 = u * u
    series = (u * u2 / 3.0) * (1.0 - u2 / 10.0 * (1.0 - u2 / 28.0 * (1.0 - u2 / 54.0)))
    return np.where(np.abs(u) < _SERIES_CUT, series, np.sin(u) - u * np.cos(u))


def one_minus_cos(u: np.ndarray) -> np.ndarray:
    """``1 - cos(u)``, evaluated as ``2 sin^2(u/2)``."""
    u = np.asarray(u, dtype=float)
    s = np.sin(0.5 * u)
    return 2.0 * s * s


def cin(x: np.ndarray) -> np.ndarray:
    """Entire cosine integral ``Cin(x) = integral_0^x (1 - cos u) / u du``.

    Even in ``x``. From ``|x| = 0.5`` up it is ``euler_gamma + ln|x| - Ci(|x|)``
    (Abramowitz & Stegun 5.2.2); below, where that difference cancels, its
    power series.
    """
    x = np.abs(np.asarray(x, dtype=float))
    x2 = x * x
    series = x2 * np.polynomial.polynomial.polyval(x2, _CIN_SERIES)
    wide = np.maximum(x, _CIN_CUT)
    closed = np.euler_gamma + np.log(wide) - sici(wide)[1]
    return np.where(x < _CIN_CUT, series, closed)


def pair_kernel(
    a: np.ndarray, b: np.ndarray, tau: np.ndarray, order: int = 0
) -> np.ndarray:
    """Two-frequency response kernel and its first two time derivatives.

    ``order=0`` evaluates ``(a sin(b tau) - b sin(a tau)) / (a^2 - b^2)``;
    orders 1 and 2 are its first and second derivatives in ``tau``. Inputs
    broadcast. Where ``a`` and ``b`` coincide to relative ``1e-8`` the
    continuous limit at the mean frequency is substituted.

    Parameters
    ----------
    a, b : array_like
        Positive frequencies.
    tau : array_like
        Times; the kernel is odd in ``tau`` for orders 0 and 2, even for 1.
    order : int
        Derivative order, 0 through 2.
    """
    a, b, tau = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(tau, dtype=float)
    )
    mean = 0.5 * (a + b)
    degenerate = np.abs(a - b) <= _DEGENERATE_CUT * mean
    # Avoid 0/0 warnings on the lanes the mask will overwrite.
    split = np.where(degenerate, 1.0, a * a - b * b)
    u = mean * tau
    if order == 0:
        generic = (a * np.sin(b * tau) - b * np.sin(a * tau)) / split
        limit = sin_minus_u_cos(u) / (2.0 * mean)
    elif order == 1:
        generic = a * b * (np.cos(b * tau) - np.cos(a * tau)) / split
        limit = 0.5 * u * np.sin(u)
    elif order == 2:
        generic = a * b * (a * np.sin(a * tau) - b * np.sin(b * tau)) / split
        limit = 0.5 * mean * (np.sin(u) + u * np.cos(u))
    else:
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    return np.where(degenerate, limit, generic)
