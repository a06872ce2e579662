"""Shared fixtures and independent oracle helpers for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bohmdec.phase_space import OscillatorSystemSpec


def trapz(y: np.ndarray, x: np.ndarray | None = None, dx: float = 1.0, axis: int = -1):
    """Trapezoid integral compatible with both numpy generations."""
    fn = getattr(np, "trapezoid", None) or np.trapz
    if x is not None:
        return fn(y, x, axis=axis)
    return fn(y, dx=dx, axis=axis)


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes it allocated, by ``tracemalloc``.

    Only allocations made during the call count, so arrays built beforehand
    (the inputs) stay out of the peak; the returned result is inside it.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def run_fresh(code: str) -> None:
    """Run ``code`` in a fresh interpreter on this one's import path, with every
    warning an error; a failed assertion there fails the calling test."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-W", "error", "-c", code], check=True, env=env, timeout=60)


def local_average(sampler, x: np.ndarray, window: float, n: int = 61) -> np.ndarray:
    """Mean of ``|sampler|**2`` over a centered window at each point."""
    offs = np.linspace(-0.5 * window, 0.5 * window, n)
    out = np.empty(np.shape(x))
    for i, xi in enumerate(np.atleast_1d(x)):
        out.flat[i] = np.mean(np.abs(sampler(xi + offs)) ** 2)
    return out


def momentum_wavefunction(sampler, p: np.ndarray, system: OscillatorSystemSpec,
                          x_lo: float, x_hi: float, n: int = 20001) -> np.ndarray:
    """Fourier-transform oracle for the momentum amplitude.

    ``phi(p) = (2 pi hbar)^(-1/2) integral psi(x) exp(-i p x / hbar) dx``
    evaluated by a fine trapezoid; independent of the Wigner route.
    """
    xs = np.linspace(x_lo, x_hi, n)
    vals = sampler(xs)
    out = np.empty(p.shape, dtype=complex)
    for i, pi in enumerate(np.atleast_1d(p)):
        phase = np.exp(-1j * pi * xs / system.hbar)
        out.flat[i] = trapz(vals * phase, xs)
    return out / np.sqrt(2.0 * np.pi * system.hbar)


def brute_force_wigner(sampler, x: float, p: float, system: OscillatorSystemSpec,
                       half_width: float, n: int = 8001) -> float:
    """Direct quadrature of the Wigner integral at a single phase-space point.

    Deliberately naive (plain fine trapezoid over the half-difference
    variable); used as an independent check on the production transform.
    """
    ys = np.linspace(-half_width, half_width, n)
    integrand = (
        np.conj(sampler(x + ys)) * sampler(x - ys)
        * np.exp(2j * p * ys / system.hbar)
    )
    return float(np.real(trapz(integrand, ys))) / (np.pi * system.hbar)


def widen_momentum_axis(field, half_span: float):
    """Embed a Wigner field into a wider zero-padded momentum axis.

    The new axis keeps the original step and stays symmetric about zero, so
    smeared output that would spill past the original edge remains on-grid.
    """
    from bohmdec.phase_space import WignerField

    dp = field.dp
    k = int(np.ceil(half_span / dp))
    p_new = dp * np.arange(-k, k + 1)
    j0 = (field.p_grid[0] - p_new[0]) / dp
    if not np.isclose(j0, round(j0), atol=1e-9):
        raise ValueError("momentum axis is not on the widened lattice")
    j0 = int(round(j0))
    if j0 < 0 or j0 + field.p_grid.size > p_new.size:
        return field
    values = np.zeros((field.x_grid.size, p_new.size))
    values[:, j0 : j0 + field.p_grid.size] = field.values
    return WignerField(
        x_grid=field.x_grid,
        p_grid=p_new,
        values=values,
        time_stamp=field.time_stamp,
        notes=field.notes,
    )


@pytest.fixture
def natural_system() -> OscillatorSystemSpec:
    return OscillatorSystemSpec()


@pytest.fixture(scope="session")
def canonical_cl_run():
    """Equal-coefficient band (n=50, width 8) under default weak damping.

    Bundles the initial Wigner field and the field propagated to five
    smoothing times; shared because the propagation is the most expensive
    artifact in the suite.
    """
    from types import SimpleNamespace

    from bohmdec.bohm_velocity import timescales
    from bohmdec.phase_space import (
        GridSpec,
        band_wavefunction,
        build_energy_band_state,
        classical_orbit,
        wigner_transform,
    )
    from bohmdec.quadratic_master import (
        CaldeiraLeggettParams,
        assemble_cl_coefficients,
        integrate_propagator,
        propagate_wigner,
    )

    system = OscillatorSystemSpec()
    params = CaldeiraLeggettParams(
        damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3
    )
    state = build_energy_band_state(50, 8)
    orbit = classical_orbit(state, system)
    grid = GridSpec.for_orbit(orbit, x_span=1.3, p_span=2.0)
    psi = band_wavefunction(state, system)
    field0 = wigner_transform(psi, grid, system)
    report = timescales(system, params, orbit)
    t_five = 5.0 * report.t_c
    coeffs = assemble_cl_coefficients(system, params)
    prop_five = integrate_propagator(coeffs, t_five)
    field_five = propagate_wigner(prop_five, field0, system)
    return SimpleNamespace(
        system=system,
        params=params,
        state=state,
        orbit=orbit,
        grid=grid,
        psi=psi,
        field0=field0,
        report=report,
        t_five=t_five,
        prop_five=prop_five,
        field_five=field_five,
    )
