"""Ensemble-averaged guidance velocities and the classical-band test."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import DomainValidityError, GridCoverageError, UndefinedVelocityError
from ..phase_space.system import ClassicalOrbit, OscillatorSystemSpec
from ..phase_space.wigner import WignerField, _trapezoid

__all__ = ["classical_band_margin", "ensemble_velocity", "initial_velocity"]

# Fraction of the peak density below which a velocity is undefined (node region).
_DENSITY_FLOOR = 1e-12


def ensemble_velocity(
    field: WignerField,
    system: OscillatorSystemSpec,
    x: float | np.ndarray,
) -> float | np.ndarray:
    """Mean velocity ``(integral p W dp) / (m integral W dp)`` at ``x``.

    Parameters
    ----------
    field : WignerField
        Sampled distribution; ``x`` is matched to the nearest grid column.
    system : OscillatorSystemSpec
    x : float or array_like
        Positions, each within half a grid step of a sampled column.

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    GridCoverageError
        If a requested position falls outside the sampled grid.
    UndefinedVelocityError
        If the position density at a requested point is below ``1e-12`` of
        its peak (node region).
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    grid = field.x_grid
    step = field.dx
    index = np.rint((x_arr - grid[0]) / step).astype(int)
    inside = (index >= 0) & (index < grid.size)
    if not np.all(inside):
        raise GridCoverageError(
            f"positions {x_arr[~inside]} fall outside the sampled x-grid "
            f"[{grid[0]:g}, {grid[-1]:g}]"
        )
    if np.any(np.abs(x_arr - grid[index]) > 0.5 * step * (1.0 + 1e-9)):
        raise GridCoverageError("requested position is not near a grid column")

    density = _trapezoid(field.values, field.dp)
    floor = _DENSITY_FLOOR * float(density.max())
    selected = density[index]
    if np.any(selected <= floor):
        dead = x_arr[selected <= floor]
        raise UndefinedVelocityError(
            f"position density below {_DENSITY_FLOOR:g} of peak at x = {dead}; "
            "velocity is undefined in node regions"
        )
    flux = _trapezoid(field.p_grid[None, :] * field.values[index], field.dp)
    velocity = flux / (system.mass * selected)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(velocity[0])
    return velocity


def initial_velocity(
    psi_sampler: Callable[[np.ndarray], np.ndarray],
    x: float | np.ndarray,
    system: OscillatorSystemSpec,
) -> float | np.ndarray:
    """Guidance velocity ``(hbar/m) Im(psi* psi') / |psi|^2`` from a wavefunction.

    The derivative is a fourth-order central difference with a step of one
    percent of the local wavelength: a first pass at one percent of the
    ground-state length estimates the local wavenumber and the stencil is
    re-evaluated at ``min(h0, hbar / (100 m |v|))``.

    Parameters
    ----------
    psi_sampler : callable
        Vectorized wavefunction sampler.
    x : float or array_like
    system : OscillatorSystemSpec

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    UndefinedVelocityError
        If ``|psi(x)|^2`` at a requested point is below ``1e-12`` of the
        largest sampled density.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    psi_here = np.asarray(psi_sampler(x_arr), dtype=complex)
    density = np.abs(psi_here) ** 2
    floor = _DENSITY_FLOOR * float(density.max())
    if np.any(density <= floor):
        dead = x_arr[density <= floor]
        raise UndefinedVelocityError(
            f"|psi|^2 below {_DENSITY_FLOOR:g} of peak at x = {dead}; "
            "velocity is undefined in node regions"
        )

    scale = system.hbar / system.mass

    def stencil(h: np.ndarray) -> np.ndarray:
        upper = 8.0 * psi_sampler(x_arr + h) - psi_sampler(x_arr + 2.0 * h)
        lower = 8.0 * psi_sampler(x_arr - h) - psi_sampler(x_arr - 2.0 * h)
        derivative = (upper - lower) / (12.0 * h)
        return scale * np.imag(np.conj(psi_here) * derivative) / density

    ground_length = np.sqrt(system.hbar / (system.mass * system.renormalized_frequency))
    h0 = np.full_like(x_arr, ground_length / 100.0)
    probe = stencil(h0)
    wavenumber = system.mass * np.abs(probe) / system.hbar
    refined = np.where(
        wavenumber > 0.0,
        np.minimum(h0, 1.0 / (100.0 * np.maximum(wavenumber, 1e-300))),
        h0,
    )
    velocity = stencil(refined)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(velocity[0])
    return velocity


def classical_band_margin(
    v: float | np.ndarray, orbit: ClassicalOrbit, x: float | np.ndarray
) -> float | np.ndarray:
    """Signed margin ``(p_cl/m - |v|) / (p_cl/m)``; negative means too fast.

    Parameters
    ----------
    v : float or array_like
        Velocities to test.
    orbit : ClassicalOrbit
    x : float or array_like
        Positions strictly inside the classically allowed region.

    Returns
    -------
    float or numpy.ndarray
        1 for a particle at rest, 0 on the band edge, negative outside it.

    Raises
    ------
    DomainValidityError
        If any position reaches or exceeds the turning points.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    v_arr = np.atleast_1d(np.asarray(v, dtype=float))
    if np.any(np.abs(x_arr) >= orbit.amplitude):
        raise DomainValidityError(
            "classical band margin is only defined strictly inside the "
            f"turning points |x| < {orbit.amplitude:g}"
        )
    classical = orbit.classical_momentum(x_arr) / orbit.system.mass
    margin = (classical - np.abs(v_arr)) / classical
    if np.ndim(v) == 0 and np.ndim(x) == 0:
        return float(margin[0])
    return margin
