"""Exact oscillator eigenfunctions via scale-tracked Hermite recurrences.

The normalized three-term recurrence is carried with a per-point exponent
offset so that arbitrarily high levels can be evaluated without overflow or
premature underflow: values are represented as ``mantissa * exp(offset)`` and
the Gaussian factor is folded in only at the end.
"""

from __future__ import annotations

import numpy as np

from .system import OscillatorSystemSpec

__all__ = ["eigenfunction_exact", "eigenfunction_table"]

_RESCALE_THRESHOLD = 1e250
_RESCALE_LOG = np.log(_RESCALE_THRESHOLD)


def eigenfunction_exact(
    n: int, x: np.ndarray, system: OscillatorSystemSpec
) -> np.ndarray:
    """Evaluate the normalized level-``n`` eigenfunction at ``x``.

    The level-``n`` row of :func:`eigenfunction_table`.

    Parameters
    ----------
    n : int
        Level index, ``n >= 0``. Arbitrarily high levels are handled by the
        scale-tracked recurrence.
    x : array_like
        Evaluation points.
    system : OscillatorSystemSpec

    Returns
    -------
    numpy.ndarray
        Real values of the standard (positive leading coefficient) Hermite
        eigenfunction, unit-normalized in ``x``.
    """
    return eigenfunction_table([n], x, system)[0]


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
        Array of shape ``(len(levels), len(x))``.
    """
    levels = np.asarray(levels)
    if levels.dtype.kind not in "iu" or np.any(levels < 0):
        raise ValueError("level indices must be non-negative integers")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    alpha = np.sqrt(system.mass * system.renormalized_frequency / system.hbar)
    xi = alpha * x
    wanted = set(int(k) for k in levels)
    top = max(wanted) if wanted else 0

    # The mantissas carry pi**-0.25 H_k(xi) / sqrt(2^k k!) times exp(-log_scale).
    rows: dict[int, np.ndarray] = {}
    prev = np.zeros_like(xi)
    cur = np.full_like(xi, np.pi**-0.25)
    log_scale = np.zeros_like(xi)

    def _store(k: int, mantissa: np.ndarray) -> None:
        with np.errstate(under="ignore"):
            rows[k] = np.sqrt(alpha) * mantissa * np.exp(log_scale - 0.5 * xi**2)

    if 0 in wanted:
        _store(0, cur)
    for k in range(top):
        nxt = np.sqrt(2.0 / (k + 1)) * xi * cur - np.sqrt(k / (k + 1)) * prev
        prev, cur = cur, nxt
        big = np.abs(cur) > _RESCALE_THRESHOLD
        if np.any(big):
            prev[big] /= _RESCALE_THRESHOLD
            cur[big] /= _RESCALE_THRESHOLD
            log_scale[big] += _RESCALE_LOG
        if (k + 1) in wanted:
            _store(k + 1, cur)
    return np.stack([rows[int(k)] for k in levels], axis=0)
