"""Input guards shared by every subpackage; numpy only, so any module may use them."""

from __future__ import annotations

import math

import numpy as np


def require_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` naming the argument when ``value`` is NaN or inf."""
    if not math.isfinite(value):
        raise ValueError(f"{name} = {value:g} is not finite")


def require_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` naming the argument unless ``value`` is finite and above 0."""
    require_finite(name, value)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value:g}")


def require_nonnegative(name: str, value: float) -> None:
    """Raise ``ValueError`` naming the argument unless ``value`` is finite and at least 0."""
    require_finite(name, value)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value:g}")


def require_integer(name: str, value) -> int:
    """``value`` as an ``int``; ``ValueError`` unless it is a whole number, not a bool."""
    if isinstance(value, (bool, np.bool_)) or not float(value).is_integer():  # or NaN, inf
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def require_close(what: str, value: float, reference: float) -> None:
    """Raise ``ValueError(what)`` unless ``value`` is ``reference`` to 1e-12 relative."""
    if not abs(value - reference) <= 1e-12 * abs(reference):
        raise ValueError(what)


def require_orbit_system(system, orbit, owner: str = "orbit") -> None:
    """Raise ``ValueError`` unless ``system`` has the mass, renormalized
    frequency and hbar of ``orbit``'s (or a band sampler's, as ``owner``) oscillator,
    the only fields an orbit reads: an oscillator that differs in its bare
    frequency alone, as the counterterm-shifted one of an explicit bath does, is
    the same to the orbit. Identity is tried first, as a per-point caller passes
    the orbit's own."""
    own = orbit.system
    if system is not own and (system.mass, system.renormalized_frequency, system.hbar) != (
        own.mass, own.renormalized_frequency, own.hbar
    ):
        raise ValueError(f"system differs from the {owner}'s")


def finite_array(name: str, values: float | np.ndarray) -> np.ndarray:
    """``values`` as an at-least-1-D float array; ``ValueError`` if an entry is NaN or inf."""
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    return arr


def freeze_fields(obj, names: tuple[str, ...]) -> None:
    """Store each named field of a frozen dataclass as a read-only, at-least-1-D float
    copy: a copy, so the caller's array stays writeable and cannot reach the stored one."""
    for name in names:
        stored = np.array(getattr(obj, name), dtype=float, ndmin=1)
        stored.flags.writeable = False
        object.__setattr__(obj, name, stored)


def require_symmetric(m: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``m`` is symmetric to 1e-12 of ``max(1, max|m|)``."""
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
        raise ValueError("smearing matrix must be symmetric")
