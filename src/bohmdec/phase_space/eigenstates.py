"""Exact oscillator eigenfunctions via scale-tracked Hermite recurrences.

The normalized three-term recurrence is carried with a per-point exponent
offset so that arbitrarily high levels can be evaluated without overflow or
premature underflow: values are represented as ``mantissa * exp(offset)`` and
the Gaussian factor is folded in only at the end. A step grows the mantissas
by at most ``sqrt(2) |xi| + 1``, so before each step one above
``max_float / (4 (1 + |xi|) max(1, sqrt(alpha)))`` is scaled exactly by a
power of two into ``[1/2, 1)``; the step and the final product with
``sqrt(alpha)`` then stay finite at every ``xi``.
Where ``sqrt(alpha) pi^-1/4 (sqrt(2) (1 + |xi|))^k exp(-xi^2 / 2)``, a bound on
levels to ``k``, is below a quarter of the least subnormal, every level rounds to
zero, so the point skips the recurrence and reads a zero of sign ``sign(xi)^k``.
"""

from __future__ import annotations

import numpy as np

from .system import OscillatorSystemSpec

__all__ = ["eigenfunction_table"]

_HUGE = np.finfo(float).max


def eigenfunction_table(
    levels: np.ndarray, x: np.ndarray, system: OscillatorSystemSpec
) -> np.ndarray:
    """Evaluate several eigenfunction levels on a shared point set.

    Parameters
    ----------
    levels : array_like of int
        Non-negative integer level indices; the recurrence runs once up to
        ``max(levels)``.
    x : array_like
        Evaluation points.
    system : OscillatorSystemSpec

    Returns
    -------
    numpy.ndarray
        Array of shape ``(len(levels), len(x))``; row ``i`` holds the real,
        unit-normalized level-``levels[i]`` eigenfunction with the standard
        sign (positive leading Hermite coefficient).
    """
    levels = np.asarray(levels)
    if levels.dtype.kind not in "iu" or np.any(levels < 0):
        raise ValueError("level indices must be non-negative integers")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    alpha = np.sqrt(system.mass * system.renormalized_frequency / system.hbar)
    wanted = set(int(k) for k in levels)
    top = max(wanted) if wanted else 0
    # every level rounds to 0 where head + top ln(sqrt(2) (1 + |xi|)) < xi^2 / 2
    head = (0.5 * np.log(alpha) - 0.25 * np.log(np.pi)
            + np.log(4.0) - np.log(np.finfo(float).smallest_subnormal))
    with np.errstate(over="ignore"):
        full = np.clip(alpha * x, -_HUGE, _HUGE)  # x = inf clips to finite
        live = ~(head + top * (0.5 * np.log(2.0) + np.log1p(np.abs(full))) < 0.5 * full**2)
    xi = full[live]
    bound = _HUGE / (4.0 * (1.0 + np.abs(xi)) * max(1.0, np.sqrt(alpha)))

    # The mantissas carry pi**-0.25 H_k(xi) / sqrt(2^k k!) times exp(-log_scale).
    rows: dict[int, np.ndarray] = {}
    prev = np.zeros_like(xi)
    cur = np.full_like(xi, np.pi**-0.25)
    log_scale = np.zeros_like(xi)

    def _store(k: int, mantissa: np.ndarray) -> None:
        rows[k] = np.copysign(0.0, full) if k % 2 else np.zeros_like(full)
        with np.errstate(under="ignore"):
            rows[k][live] = np.sqrt(alpha) * mantissa * np.exp(log_scale - 0.5 * xi**2)

    if 0 in wanted:
        _store(0, cur)
    for k in range(top):
        # prev was last step's cur, so checking cur keeps both within bound
        big = np.abs(cur) > bound
        if np.any(big):
            shift = np.frexp(cur[big])[1]
            cur[big] = np.ldexp(cur[big], -shift)
            prev[big] = np.ldexp(prev[big], -shift)
            log_scale[big] += shift * np.log(2.0)
        nxt = np.sqrt(2.0 / (k + 1)) * xi * cur - np.sqrt(k / (k + 1)) * prev
        prev, cur = cur, nxt
        if (k + 1) in wanted:
            _store(k + 1, cur)
    return np.stack([rows[int(k)] for k in levels], axis=0)
