"""Ensemble-averaged guidance velocities and the classical-band test."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._guards import finite_array, require_orbit_system
from ..errors import GridCoverageError, UndefinedVelocityError
from ..phase_space.system import ClassicalOrbit, EnergyBandState, OscillatorSystemSpec
from ..phase_space.wigner import WignerField, _trapezoid
from ..phase_space.wkb import _band_psi
from .decomposition import _require_interior

__all__ = ["classical_band_margin", "ensemble_velocity", "initial_velocity"]

# Fraction of the reference density below which a velocity is undefined (node region).
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
        Sampled distribution; each position is read at the grid column its
        offset from the first rounds to, so a midpoint takes either neighbour.
    system : OscillatorSystemSpec
    x : float or array_like
        Positions within half a grid step of the sampled x-range.

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    ValueError
        If ``x`` or ``field`` has a NaN or infinite entry.
    GridCoverageError
        If a requested position rounds to no column of the sampled grid.
    UndefinedVelocityError
        If the position density at a requested point is below ``1e-12`` of
        its peak (node region).
    """
    x_arr = finite_array("x", x)
    grid = field.x_grid
    step = field.dx
    # range-checked as floats, so a far position cannot overflow the cast
    index = np.rint((x_arr - grid[0]) / step)
    inside = (index >= 0) & (index < grid.size)
    if not np.all(inside):
        raise GridCoverageError(
            f"positions {x_arr[~inside]} fall outside the sampled x-grid "
            f"[{grid[0]:g}, {grid[-1]:g}]"
        )
    index = index.astype(int)

    # a NaN or inf cell reaches the density of its row
    density = finite_array("field", _trapezoid(field.values, field.dp))
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
    """Guidance velocity ``(hbar/m) Im(psi* psi') / |psi|^2`` of a band state.

    ``psi`` and ``psi'`` come in closed form from the band the sampler
    carries; the sampler is never called, and no point depends on another.

    Parameters
    ----------
    psi_sampler : callable
        A :func:`~bohmdec.phase_space.band_wavefunction` sampler, or a wrapper
        that copies its ``state`` and ``system`` (as ``functools.wraps`` does).
    x : float or array_like
    system : OscillatorSystemSpec
        With the sampler's mass, renormalized frequency and hbar.

    Returns
    -------
    float or numpy.ndarray

    Raises
    ------
    ValueError
        If ``psi_sampler`` carries no band state, ``system`` is another
        oscillator, or ``x`` has a NaN or infinite entry.
    UndefinedVelocityError
        If ``|psi(x)|^2`` at a requested point is at most ``1e-12`` of
        ``sum_r |w_r phi_r(x)|^2``, the density its levels carry one by one.
    """
    state = getattr(psi_sampler, "state", None)
    if not isinstance(state, EnergyBandState):
        raise ValueError("psi_sampler carries no band state; pass a band_wavefunction sampler")
    require_orbit_system(system, psi_sampler, "sampler")
    x_arr = finite_array("x", x)
    psi, slope, levels_density = _band_psi(state, system, x_arr, with_slope=True)
    density = np.abs(psi) ** 2
    dead = density <= _DENSITY_FLOOR * levels_density
    if np.any(dead):
        raise UndefinedVelocityError(
            f"|psi|^2 below {_DENSITY_FLOOR:g} of its levels' at x = {x_arr[dead]}; "
            "velocity is undefined in node regions"
        )
    velocity = system.hbar / system.mass * np.imag(np.conj(psi) * slope) / density
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
    ValueError
        If ``v`` or ``x`` has a NaN or infinite entry.
    DomainValidityError
        If any position reaches or exceeds the turning points.
    """
    v_arr = finite_array("v", v)
    x_arr = finite_array("x", x)
    _require_interior(x_arr, orbit)
    classical = orbit.classical_momentum(x_arr) / orbit.system.mass
    margin = (classical - np.abs(v_arr)) / classical
    if np.ndim(v) == 0 and np.ndim(x) == 0:
        return float(margin[0])
    return margin
