"""Ensemble-averaged guidance velocities and the classical-band test."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .._guards import finite_array
from ..errors import GridCoverageError, UndefinedVelocityError
from ..phase_space.system import ClassicalOrbit, OscillatorSystemSpec
from ..phase_space.wigner import WignerField, _trapezoid
from .decomposition import _require_interior

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
        If ``x`` has a NaN or infinite entry.
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
    ground-state length, ``h0``, estimates the local wavenumber and the
    stencil is re-evaluated at ``min(h0, hbar / (100 m |v|))``. Each point is
    judged against its own first-pass samples, so its velocity does not
    depend on the other points requested.

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
    ValueError
        If ``x`` has a NaN or infinite entry.
    UndefinedVelocityError
        If ``|psi(x)|^2`` at a requested point is at most ``1e-12`` of the
        largest ``|psi|^2`` among its first-pass samples ``psi(x +- h0)`` and
        ``psi(x +- 2 h0)``.
    """
    x_arr = finite_array("x", x)
    psi_here = np.asarray(psi_sampler(x_arr), dtype=complex)
    density = np.abs(psi_here) ** 2
    scale = system.hbar / system.mass

    def stencil(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(hbar/m) Im(psi* psi')`` with the step ``h``, and the largest
        ``|psi|^2`` among the stencil's samples."""
        near_up, far_up, near_down, far_down = (
            psi_sampler(x_arr + s * h) for s in (1.0, 2.0, -1.0, -2.0)
        )
        derivative = ((8.0 * near_up - far_up) - (8.0 * near_down - far_down)) / (12.0 * h)
        nearby = np.abs([near_up, far_up, near_down, far_down]) ** 2
        return scale * np.imag(np.conj(psi_here) * derivative), nearby.max(axis=0)

    ground_length = np.sqrt(system.hbar / (system.mass * system.renormalized_frequency))
    h0 = np.full_like(x_arr, ground_length / 100.0)
    flux, nearby = stencil(h0)
    dead = density <= _DENSITY_FLOOR * nearby
    if np.any(dead):
        raise UndefinedVelocityError(
            f"|psi|^2 below {_DENSITY_FLOOR:g} of its neighbours' at x = {x_arr[dead]}; "
            "velocity is undefined in node regions"
        )
    probe = flux / density
    wavenumber = system.mass * np.abs(probe) / system.hbar
    with np.errstate(divide="ignore"):  # no wavenumber: h0
        refined = np.minimum(h0, 1.0 / (100.0 * wavenumber))
    velocity = stencil(refined)[0] / density
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
