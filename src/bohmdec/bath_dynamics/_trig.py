"""Cancellation-safe trigonometric combinations used across the bath modules.

``u - sin(u)``, ``sin(u) - u cos(u)`` and ``1 - cos(u)`` lose their leading
digits for small ``u`` when evaluated literally; the slice integrals and the
weak-coupling blocks need all three, and the normal-mode flow writes its
cosine block as ``1 - U (1 - cos Wt) U^T`` so that short times keep their
digits. Beside them: the two-frequency ratio family

    (a sin(b tau) - b sin(a tau)) / (a^2 - b^2)

whose ``a -> b`` limit is finite (a half-angle form removes the 0/0), the
sine integral ``Si`` and the entire cosine integral ``Cin`` that the ohmic
spectral integrals reduce to, and the phase sums over the normal modes at
each node that tabulate a finite bath's response function. ``Si`` and ``Cin``
are power series below ``|x| = 4`` (Abramowitz & Stegun 5.2) and the continued
fraction of ``E1(ix)`` above (Press et al., *Numerical Recipes* 6.8), summed from
its 48th partial fraction down, for a Python float or an array alike.
"""

from __future__ import annotations

from math import factorial, isqrt

import numpy as np

from .._elementwise import elementwise

_SERIES_CUT = 0.05
# the Si/Ci split, and the depth of E1's continued fraction above it
_SICI_SPLIT, _E1_DEPTH = 4.0, 48
# Taylor coefficients in x^2 of Si(x) / x and Cin(x) / x^2; the 17th is below 1e-17 at the split
_SI_SERIES = tuple((-1) ** k / ((2 * k + 1) * factorial(2 * k + 1)) for k in range(16))
_CIN_SERIES = tuple((-1) ** k / ((2 * k + 2) * factorial(2 * k + 2)) for k in range(16))


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


def si_cin(x):
    """``(Si(x), Cin(x))``, odd and even in ``x``; ``Cin(x) = euler_gamma + ln|x| - Ci(|x|)``.

    Power series below the split, which cancel by less than a factor of 2, and
    ``Ci(x) + i (Si(x) - pi/2) = -E1(ix)`` above it: within 2.5e-16 relative of
    mpmath. Both branches run at every point, each on ``|x|`` clamped to its own
    side of the split, and the side of ``|x|`` picks one; one text serves a Python
    float and an array (:mod:`bohmdec._elementwise`). The series are summed from
    the top, as numpy's ``polyval`` sums them.
    """
    lib, x = elementwise(x)
    ax = abs(x)
    near, far = lib.minimum(ax, _SICI_SPLIT), lib.maximum(ax, _SICI_SPLIT)
    x2, si_sum, cin_sum = near * near, 0.0, 0.0
    for si_k, cin_k in zip(reversed(_SI_SERIES), reversed(_CIN_SERIES)):
        si_sum, cin_sum = si_k + si_sum * x2, cin_k + cin_sum * x2
    e1 = _e1_fraction(far) * (lib.cos(far) - 1j * lib.sin(far))  # E1(i far)
    below = ax < _SICI_SPLIT
    si = lib.where(below, near * si_sum, 0.5 * lib.pi + e1.imag)
    cin_ = lib.where(below, x2 * cin_sum, np.euler_gamma + lib.log(far) + e1.real)
    return lib.copysign(si, x), cin_


def _e1_fraction(x):
    """``e^{ix} E1(ix) = 1 / (1 + ix - 1 / (3 + ix - 4 / (5 + ix - ...)))`` for ``x >= 4``,
    a Python float or an array, evaluated from its tail: the partial fractions
    ``k^2 / (2k + 1 + ix)`` up to ``k = 48``, one more than the modified Lentz
    method takes to reach eps at ``x = 4``; a larger ``x`` converges sooner."""
    ix = 1j * x
    tail = ix + (2 * _E1_DEPTH + 1)
    for k in range(_E1_DEPTH, 0, -1):
        tail = ix + (2 * k - 1) - k * k / tail
    return 1.0 / tail


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

    The weak-coupling blocks take it for every mode at one time.
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


def phase_sums(
    frequencies: np.ndarray, step: float, weights: np.ndarray, count: int
) -> np.ndarray:
    """Sums of ``exp(1j w_r tau_k) weights[r]`` over the lines at each node.

    The nodes are ``tau_k = k step`` for ``k < count`` and ``weights`` has
    one row per frequency; the result has shape ``(count, width)``. Node
    ``k = j B + i`` with ``B = ceil(sqrt(count))`` has the phase of node
    ``i`` times that of node ``j B``, so only ``count / B + B`` phases per
    frequency are evaluated and one matrix product with the fine phases does
    the rest (angle addition).
    """
    width = weights.shape[1]
    block = isqrt(count - 1) + 1
    rows = -(-count // block)
    fine = np.exp(1j * np.multiply.outer(frequencies, np.arange(block) * step))
    coarse = np.exp(1j * np.multiply.outer(frequencies, np.arange(0, count, block) * step))
    spread = (coarse[:, :, None] * weights[:, None, :]).reshape(frequencies.size, rows * width)
    partial = (fine.T @ spread).reshape(block, rows, width)
    return partial.transpose(1, 0, 2).reshape(rows * block, width)[:count]
