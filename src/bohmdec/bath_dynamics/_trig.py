"""Cancellation-safe trigonometric combinations used across the bath modules.

The response integrands repeatedly need ``u - sin(u)``, ``sin(u) - u cos(u)``
and ``1 - cos(u)``, all of which lose their leading digits for small ``u``
when evaluated literally, plus the two-frequency ratio family

    (a sin(b tau) - b sin(a tau)) / (a^2 - b^2)

whose ``a -> b`` limit is finite (a half-angle form removes the 0/0), and the
entire cosine integral ``Cin`` that the ohmic spectral integrals reduce to.
"""

from __future__ import annotations

from math import factorial

import numpy as np
from scipy.special import sici

_SERIES_CUT = 0.05
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
    a: np.ndarray, b: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-frequency response kernel and its first two time derivatives.

    Returns ``(K0, K1, K2)``, where
    ``K0 = (a sin(b tau) - b sin(a tau)) / (a^2 - b^2)`` and ``K1``, ``K2``
    are its first and second derivatives in ``tau``; inputs broadcast. With
    ``z = (a - b) tau``, ``u = (a + b) tau / 2``, ``sinc(z/2) = sin(z/2) / (z/2)``
    (1 at ``z = 0``) and ``lo, hi`` the smaller and larger of ``a, b``,
    sum-to-product identities give::

        c  = tau cos(u) sinc(z/2)
        K0 = (sin(lo tau) - lo c) / (a + b)
        K1 = a b tau sin(u) sinc(z/2) / (a + b)
        K2 = a b (sin(lo tau) + hi c) / (a + b)

    These hold unchanged as ``a`` approaches ``b``, so the degenerate limit
    needs no branch, and anchoring on the smaller frequency keeps the
    rounding of the large phase out of ``K0``. ``K0`` and ``K2`` are odd in
    ``tau``, ``K1`` even.
    """
    a, b, tau = (np.asarray(v, dtype=float) for v in (a, b, tau))
    total = a + b
    scale = a * b / total
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    u = 0.5 * total * tau
    half_z = 0.5 * (a - b) * tau
    sinc = np.divide(np.sin(half_z), half_z, out=np.ones_like(half_z), where=half_z != 0.0)
    sin_lo = np.sin(lo * tau)
    c = tau * np.cos(u) * sinc
    return (sin_lo - lo * c) / total, scale * tau * np.sin(u) * sinc, scale * (sin_lo + hi * c)
