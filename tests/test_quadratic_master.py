"""Tests for the quadratic master-equation coefficients and propagator."""

from __future__ import annotations

import importlib
import os
import sys
import threading
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy import ndimage
from scipy.integrate import solve_ivp
from scipy.linalg import solve_continuous_lyapunov

from bohmdec import _parallel
from bohmdec.bohm_velocity import timescales
from bohmdec.errors import DomainValidityError, NumericalFailureError
from bohmdec.phase_space import (
    GridSpec,
    OscillatorSystemSpec,
    WignerField,
    band_wavefunction,
    build_energy_band_state,
    classical_orbit,
    density_matrix_from_wigner,
    wigner_transform,
)
from bohmdec.quadratic_master import (
    CaldeiraLeggettParams,
    GaussianPropagator,
    MasterEqCoefficients,
    assemble_cl_coefficients,
    integrate_propagator,
    nonnegativity_threshold,
    position_decoherence_factor,
    propagate_wigner,
)
from bohmdec.quadratic_master import apply
from bohmdec.quadratic_master.propagator import _exp_series

from conftest import run_fresh, traced_peak, widen_momentum_axis
from pde_oracle import pde_oracle_evolve


def default_cl(system: OscillatorSystemSpec) -> MasterEqCoefficients:
    params = CaldeiraLeggettParams(damping_rate=0.01, thermal_energy=10.0, cutoff=100.0)
    return assemble_cl_coefficients(system, params)


# Property tests are derandomized so the suite gives the same verdict on
# every run.
properties = settings(max_examples=40, deadline=None, derandomize=True, database=None)
entry = st.floats(-2.0, 2.0)


@st.composite
def propagators(draw) -> GaussianPropagator:
    """Propagator with a well-conditioned flow and a PSD smearing matrix."""
    # diagonal in [1.5, 3.5], off-diagonal within 1: diagonally dominant
    perturbation = np.array(draw(st.lists(entry, min_size=4, max_size=4))).reshape(2, 2)
    a = 2.5 * np.eye(2) + 0.5 * perturbation
    low = np.array(draw(st.lists(entry, min_size=3, max_size=3)))
    chol = np.array([[low[0], 0.0], [low[1], low[2]]])
    t = draw(st.floats(0.0, 3.0))
    return GaussianPropagator(t=t, a=a, m=chol @ chol.T)


def compose(first: GaussianPropagator, second: GaussianPropagator) -> GaussianPropagator:
    """Propagator equivalent to applying ``first`` then ``second``.

    The flow matrices multiply and the later smearing is pulled back through
    the earlier flow: ``A = A2 A1``, ``M = M1 + A1^-1 M2 A1^-T``.
    """
    a1_inv = np.linalg.inv(first.a)
    return GaussianPropagator(
        t=first.t + second.t,
        a=second.a @ first.a,
        m=first.m + a1_inv @ second.m @ a1_inv.T,
    )


def mp_block_flow(coeffs: MasterEqCoefficients, t: float) -> tuple[np.ndarray, np.ndarray]:
    """``A(t)`` and ``M(t)`` from Van Loan's block exponential at 60 digits.

    The top-right block of ``exp([[-K, 4J], [0, K^T]] t)`` is
    ``S A^-T = A M``, so ``M`` is ``A^-1`` times it.
    """
    k = coeffs.drift_matrix(0.0)
    generator = np.block([[-k, 4.0 * coeffs.diffusion_matrix(0.0)], [np.zeros((2, 2)), k.T]])
    with mp.workdps(60):
        block = mp.expm(mp.matrix(generator.tolist()) * t)
        a = block[0:2, 0:2]
        m = a**-1 * block[0:2, 2:4]
        return np.array(a.tolist(), dtype=float), np.array(m.tolist(), dtype=float)


def symmetric_grid(half_span: float, step: float) -> np.ndarray:
    k = int(round(half_span / step))
    return step * np.arange(-k, k + 1)


def gaussian_field(
    x: np.ndarray, p: np.ndarray, mean: np.ndarray, cov: np.ndarray
) -> WignerField:
    inv = np.linalg.inv(cov)
    xx = x[:, None] - mean[0]
    pp = p[None, :] - mean[1]
    quad = inv[0, 0] * xx**2 + 2.0 * inv[0, 1] * xx * pp + inv[1, 1] * pp**2
    values = np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))
    return WignerField(x_grid=x, p_grid=p, values=values)


def smear_reference(
    prop: GaussianPropagator, field: WignerField, tail: float
) -> tuple[np.ndarray, np.ndarray]:
    """Uncut smear, and the part of it read from spectrum cells past ``tail``.

    A zero buffer covering the input grid and every pulled-back point is
    smeared in Fourier space and read with map_coordinates' own bicubic
    prefilter, as in ``test_matches_bounding_box_reference``. The second
    field is read from the cells with ``k^T M k / 4 > tail`` alone.
    """
    x, p, dx, dp = field.x_grid, field.p_grid, field.dx, field.dp
    a_inv = np.linalg.inv(prop.a)
    rows = (a_inv[0, 0] * x[:, None] + a_inv[0, 1] * p - x[0]) / dx
    cols = (a_inv[1, 0] * x[:, None] + a_inv[1, 1] * p - p[0]) / dp

    def span(index, size, width):
        margin = 4 + int(np.ceil(8.0 * width))
        lo = min(int(np.floor(index.min())), 0) - margin
        return lo, max(int(np.ceil(index.max())), size - 1) + margin + 1 - lo

    m = prop.m
    lo_x, n_x = span(rows, x.size, np.sqrt(0.5 * m[0, 0]) / dx)
    lo_p, n_p = span(cols, p.size, np.sqrt(0.5 * m[1, 1]) / dp)
    buffer = np.zeros((n_x, n_p))
    buffer[-lo_x : x.size - lo_x, -lo_p : p.size - lo_p] = field.values
    kx = 2.0 * np.pi * np.fft.fftfreq(n_x, dx)[:, None]
    kp = 2.0 * np.pi * np.fft.rfftfreq(n_p, dp)[None, :]
    exponent = 0.25 * (m[0, 0] * kx**2 + 2.0 * m[0, 1] * kx * kp + m[1, 1] * kp**2)
    spectrum = np.fft.rfft2(buffer) * np.exp(-exponent)

    def read(cells):
        smeared = np.fft.irfft2(cells, s=buffer.shape)
        return ndimage.map_coordinates(
            smeared, [rows - lo_x, cols - lo_p], order=3, mode="constant"
        ) / np.linalg.det(prop.a)

    return read(spectrum), read(np.where(exponent > tail, spectrum, 0.0))


def evolve_moments(
    coeffs: MasterEqCoefficients, mean0: np.ndarray, cov0: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Independent first/second moment evolution for Gaussian oracles."""

    def rhs(time: float, y: np.ndarray) -> np.ndarray:
        k = coeffs.drift_matrix(time)
        j = coeffs.diffusion_matrix(time)
        mean = y[:2]
        cov = y[2:].reshape(2, 2)
        dcov = -k @ cov - cov @ k.T + 2.0 * j
        return np.concatenate([-k @ mean, dcov.ravel()])

    sol = solve_ivp(
        rhs,
        (0.0, t),
        np.concatenate([mean0, cov0.ravel()]),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    final = sol.y[:, -1]
    return final[:2], final[2:].reshape(2, 2)


class TestCoefficients:
    def test_cl_assembly_example(self, natural_system):
        coeffs = default_cl(natural_system)
        np.testing.assert_allclose(
            coeffs.drift_matrix(0.0), [[0.0, -1.0], [1.0, 0.02]], atol=1e-15
        )
        np.testing.assert_allclose(
            coeffs.diffusion_matrix(0.0), [[0.0, 0.0], [0.0, 0.2]], atol=1e-15
        )

    def test_closed_system_limit(self, natural_system):
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=5.0, cutoff=10.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        np.testing.assert_allclose(
            coeffs.drift_matrix(0.0), [[0.0, -1.0], [1.0, 0.0]], atol=1e-15
        )
        assert coeffs.diffusion_is_zero()

    def test_doubling_temperature_doubles_momentum_diffusion(self, natural_system):
        cool = CaldeiraLeggettParams(damping_rate=0.03, thermal_energy=7.0, cutoff=50.0)
        hot = CaldeiraLeggettParams(damping_rate=0.03, thermal_energy=14.0, cutoff=50.0)
        j_cool = assemble_cl_coefficients(natural_system, cool).diffusion_matrix(0.0)
        j_hot = assemble_cl_coefficients(natural_system, hot).diffusion_matrix(0.0)
        np.testing.assert_allclose(j_hot, 2.0 * j_cool, rtol=1e-14)

    def test_drift_assembly_pattern(self):
        coeffs = MasterEqCoefficients(
            h1=2.0, h2=3.0, h3=5.0, gamma=7.0, j11=0.5, j12=0.25, j22=1.5
        )
        np.testing.assert_allclose(
            coeffs.drift_matrix(0.0), [[-5.0, -3.0], [2.0, 19.0]], atol=1e-15
        )
        j = coeffs.diffusion_matrix(0.0)
        np.testing.assert_allclose(j, j.T, atol=0.0)

    def test_rejects_callable_coefficient(self):
        # integrate_propagator's block exponential holds only for constants
        with pytest.raises(TypeError, match="h1"):
            MasterEqCoefficients(
                h1=lambda t: 1.0 + t, h2=1.0, h3=0.0, gamma=0.0, j11=0.0, j12=0.0, j22=0.0
            )

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CaldeiraLeggettParams(damping_rate=-0.1, thermal_energy=1.0, cutoff=1.0)
        with pytest.raises(ValueError):
            CaldeiraLeggettParams(damping_rate=0.1, thermal_energy=1.0, cutoff=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["damping_rate", "thermal_energy", "cutoff"])
    def test_cl_params_reject_nonfinite(self, name, bad):
        values = {"damping_rate": 0.01, "thermal_energy": 10.0, "cutoff": 100.0}
        values[name] = bad
        with pytest.raises(ValueError, match="finite"):
            CaldeiraLeggettParams(**values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["h1", "gamma", "j22"])
    def test_constant_coefficients_reject_nonfinite(self, name, bad):
        values = {"h1": 1.0, "h2": 1.0, "h3": 0.0, "gamma": 0.0,
                  "j11": 0.0, "j12": 0.0, "j22": 0.0}
        values[name] = bad
        with pytest.raises(ValueError, match="finite"):
            MasterEqCoefficients(**values)

    def test_derived_rates_recomputed(self, natural_system):
        params = CaldeiraLeggettParams(
            damping_rate=0.05, thermal_energy=1000.0, cutoff=200.0
        )
        assert params.diffusion(natural_system) == pytest.approx(100.0)
        assert params.localization_rate(natural_system) == pytest.approx(100.0)
        heavy = OscillatorSystemSpec(mass=4.0)
        assert params.diffusion(heavy) == pytest.approx(400.0)


class TestIntegratePropagator:
    def test_time_zero_identity(self, natural_system):
        prop = integrate_propagator(default_cl(natural_system), 0.0)
        np.testing.assert_allclose(prop.a, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(prop.m, np.zeros((2, 2)), atol=1e-15)
        assert isinstance(integrate_propagator(default_cl(natural_system), 0).t, float)

    def test_unitary_closed_form(self):
        system = OscillatorSystemSpec(
            mass=2.0, bare_frequency=3.0, renormalized_frequency=3.0
        )
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=1.0, cutoff=1.0)
        coeffs = assemble_cl_coefficients(system, params)
        t = 0.7
        mw = system.mass * system.renormalized_frequency
        angle = system.renormalized_frequency * t
        expected = np.array(
            [
                [np.cos(angle), np.sin(angle) / mw],
                [-mw * np.sin(angle), np.cos(angle)],
            ]
        )
        prop = integrate_propagator(coeffs, t)
        np.testing.assert_allclose(prop.a, expected, atol=1e-12)
        np.testing.assert_allclose(prop.m, np.zeros((2, 2)), atol=1e-12)

    # t = None stands for five smoothing times of the canonical band
    @pytest.mark.parametrize("t", [None, 2.0, 20.0], ids=["5t_c", "2", "20"])
    @pytest.mark.parametrize("gamma, thermal_energy, cutoff", [(1e-4, 1e3, 1e3), (1e-2, 10.0, 100.0)])
    def test_constant_coefficients_closed_form(
        self, natural_system, gamma, thermal_energy, cutoff, t
    ):
        params = CaldeiraLeggettParams(gamma, thermal_energy, cutoff)
        if t is None:
            orbit = classical_orbit(build_energy_band_state(50, 8), natural_system)
            t = 5.0 * timescales(natural_system, params, orbit).t_c
        coeffs = assemble_cl_coefficients(natural_system, params)
        prop = integrate_propagator(coeffs, t)

        # A = exp(-K t), with (K - gamma)^2 = -(omega^2 - gamma^2)
        k = coeffs.drift_matrix(0.0)
        rate = np.sqrt(natural_system.renormalized_frequency**2 - gamma**2)
        a = np.exp(-gamma * t) * (
            np.cos(rate * t) * np.eye(2) - np.sin(rate * t) / rate * (k - gamma * np.eye(2))
        )
        np.testing.assert_allclose(prop.a, a, rtol=0.0, atol=1e-12 * np.abs(a).max())

        # M = A^-1 S A^-T, with the Lyapunov equation S' = -K S - S K^T + 4 J
        j = coeffs.diffusion_matrix(0.0)

        def rhs(_, y):
            s = y.reshape(2, 2)
            return (-k @ s - s @ k.T + 4.0 * j).ravel()

        sol = solve_ivp(rhs, (0.0, t), np.zeros(4), method="DOP853", rtol=1e-13, atol=1e-16)
        a_inv = np.linalg.inv(a)
        m = a_inv @ sol.y[:, -1].reshape(2, 2) @ a_inv.T
        np.testing.assert_allclose(prop.m, m, rtol=0.0, atol=1e-12 * np.abs(m).max())

    @pytest.mark.parametrize(
        "gamma, thermal_energy, cutoff, t",
        [(1e-2, 1e14, 100.0, 31.4), (1e-2, 1e14, 100.0, 100.0), (0.5, 1e5, 1e4, 100.0)],
        ids=["hot-31.4", "hot-100", "strong-100"],
    )
    def test_matches_high_precision_block_exponential(
        self, natural_system, gamma, thermal_energy, cutoff, t
    ):
        # a hot bath (4 J_22 = 8e12) and strong damping with a large cutoff:
        # 5e-15 and 1.6e-14 of the largest entry measured
        params = CaldeiraLeggettParams(gamma, thermal_energy, cutoff)
        coeffs = assemble_cl_coefficients(natural_system, params)
        prop = integrate_propagator(coeffs, t)
        a, m = mp_block_flow(coeffs, t)
        assert np.abs(prop.a - a).max() <= 1e-13 * np.abs(a).max()
        assert np.abs(prop.m - m).max() <= 1e-13 * np.abs(m).max()

    def test_step_series_is_exact_at_its_bound(self):
        # h max|K| = 1/2 with -hK holding the eigenvalue -1, the slowest case
        # of ||hK||_inf <= 1: 1.2e-16 of the largest entry measured, and
        # 1.2e-15 with a series two degrees shorter
        hk = np.full((2, 2), 0.5)
        step = np.block([[-hk, np.array([[1.0, 0.3], [0.3, 0.5]])], [np.zeros((2, 2)), hk.T]])
        with mp.workdps(60):
            exact = np.array(mp.expm(mp.matrix(step.tolist())).tolist(), dtype=float)
        assert np.abs(_exp_series(step) - exact).max() <= 2.0**-52 * np.abs(exact).max()

    def test_short_time_diffusion_closed_form(self, natural_system):
        # D = 1 with omega t, gamma t << 1: M ~ 4 D t [[t^2/3, -t/2], [-t/2, 1]]
        params = CaldeiraLeggettParams(damping_rate=0.01, thermal_energy=50.0, cutoff=100.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        t = 0.1
        prop = integrate_propagator(coeffs, t)
        expected = 4.0 * t * np.array([[t**2 / 3.0, -t / 2.0], [-t / 2.0, 1.0]])
        np.testing.assert_allclose(prop.m, expected, rtol=0.05)

    def test_composition_matches_direct(self, natural_system):
        coeffs = default_cl(natural_system)
        first = integrate_propagator(coeffs, 0.15)
        second = integrate_propagator(coeffs, 0.25)
        joined = compose(first, second)
        direct = integrate_propagator(coeffs, 0.4)
        assert joined.t == pytest.approx(0.4)
        np.testing.assert_allclose(joined.a, direct.a, atol=1e-9)
        np.testing.assert_allclose(joined.m, direct.m, atol=1e-9)

    @properties
    @given(propagators(), propagators(), propagators())
    def test_compose_is_associative(self, first, second, third):
        left = compose(compose(first, second), third)
        right = compose(first, compose(second, third))
        assert left.t == pytest.approx(right.t, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(left.a, right.a, rtol=1e-12, atol=1e-12)
        scale = max(1.0, float(np.abs(left.m).max()))
        np.testing.assert_allclose(left.m, right.m, rtol=0.0, atol=1e-12 * scale)

    @properties
    @given(st.floats(0.01, 1.5), st.floats(0.01, 1.5))
    def test_compose_matches_direct_for_constant_coefficients(self, t1, t2):
        coeffs = default_cl(OscillatorSystemSpec())
        joined = compose(integrate_propagator(coeffs, t1), integrate_propagator(coeffs, t2))
        direct = integrate_propagator(coeffs, t1 + t2)
        np.testing.assert_allclose(joined.a, direct.a, atol=1e-9)
        np.testing.assert_allclose(joined.m, direct.m, atol=1e-9)

    def test_m_symmetric_psd_along_horizon(self, natural_system):
        coeffs = default_cl(natural_system)
        for t in (0.2, 0.5, 1.0, 2.0, 4.0):
            m = integrate_propagator(coeffs, t).m
            np.testing.assert_allclose(m, m.T, atol=0.0)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-12 * max(eigs.max(), 1.0)

    def test_near_singular_flow_aborts(self, natural_system):
        params = CaldeiraLeggettParams(
            damping_rate=100.0, thermal_energy=1e-6, cutoff=1.0
        )
        coeffs = assemble_cl_coefficients(natural_system, params)
        with pytest.raises(NumericalFailureError):
            integrate_propagator(coeffs, 0.3)

    def test_condition_limit_is_pinned(self, natural_system):
        # gamma = 10, kT = 1, cutoff 100: cond A reads 2.4e10 at t = 1.2 and
        # 9.3e12 at t = 1.5; a limit of 1e16 let t = 1.5 through with M
        # entries of 2e26
        params = CaldeiraLeggettParams(damping_rate=10.0, thermal_energy=1.0, cutoff=100.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        assert np.linalg.cond(integrate_propagator(coeffs, 1.2).a) > 1e10
        with pytest.raises(NumericalFailureError, match="condition number exceeds 1e\\+12"):
            integrate_propagator(coeffs, 1.5)

    @pytest.mark.parametrize("warning_filter", ["error", "default"])
    @pytest.mark.parametrize(
        "damping_rate, t, message",
        [
            (0.01, 5e4, "overflowed"),
            (1.0, 400.0, "overflowed"),
            (1.0, 800.0, "underflowed"),
        ],
    )
    def test_runaway_flow_raises_typed_error(
        self, natural_system, warning_filter, damping_rate, t, message
    ):
        # kT = 10, cutoff 100: M = A^-1 S A^-T grows until it leaves the float
        # range, or A ~ (1 + t) e^-t underflows to a singular matrix
        params = CaldeiraLeggettParams(
            damping_rate=damping_rate, thermal_energy=10.0, cutoff=100.0
        )
        coeffs = assemble_cl_coefficients(natural_system, params)
        with warnings.catch_warnings():
            warnings.simplefilter(warning_filter)
            with pytest.raises(NumericalFailureError, match=message):
                integrate_propagator(coeffs, t)

    @pytest.mark.parametrize("t", [10.0, 20.0, 100.0])
    def test_strong_damping_matches_stationary_lyapunov(self, natural_system, t):
        # gamma = omega = 1 (kT = 10, cutoff 100): -K has the double eigenvalue
        # -1, N = K - 1 is nilpotent and A = e^-t (1 - t N) decays while M grows
        params = CaldeiraLeggettParams(damping_rate=1.0, thermal_energy=10.0, cutoff=100.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        prop = integrate_propagator(coeffs, t)

        k = coeffs.drift_matrix(0.0)
        nilpotent = k - np.eye(2)
        np.testing.assert_allclose(nilpotent @ nilpotent, 0.0, atol=1e-15)
        a = np.exp(-t) * (np.eye(2) - t * nilpotent)
        np.testing.assert_allclose(prop.a, a, rtol=0.0, atol=1e-12 * np.abs(a).max())

        # S = S_inf - A S_inf A^T with K S_inf + S_inf K^T = 4 J, and M = A^-1 S A^-T
        s_inf = solve_continuous_lyapunov(k, 4.0 * coeffs.diffusion_matrix(0.0))
        a_inv = np.exp(t) * (np.eye(2) + t * nilpotent)
        m = a_inv @ (s_inf - a @ s_inf @ a.T) @ a_inv.T
        np.testing.assert_allclose(prop.m, m, rtol=0.0, atol=1e-10 * np.abs(m).max())

    def test_indefinite_diffusion_raises_typed_error(self):
        coeffs = MasterEqCoefficients(
            h1=1.0, h2=1.0, h3=0.0, gamma=0.1, j11=0.0, j12=0.0, j22=-1.0
        )
        with pytest.raises(NumericalFailureError, match="positive semidefiniteness"):
            integrate_propagator(coeffs, 1.0)

    @pytest.mark.parametrize("factor", [1.0 - 1e-3, 1.0 + 1e-3])
    def test_one_psd_tolerance(self, factor):
        # With no drift the integration gives M = 4 J t exactly, so at t = 1/4
        # M = J, whose least eigenvalue sits at factor * 1e-10 of the largest:
        # within the one tolerance both the integration and the construction
        # accept it, past it both reject it
        j22 = -factor * 1e-10 * 100.0
        coeffs = MasterEqCoefficients(
            h1=0.0, h2=0.0, h3=0.0, gamma=0.0, j11=100.0, j12=0.0, j22=j22
        )
        m = np.diag([100.0, j22])
        if factor < 1.0:
            np.testing.assert_array_equal(
                integrate_propagator(coeffs, 0.25).m, np.diag([100.0, 0.0])
            )
            GaussianPropagator(0.25, np.eye(2), m)
        else:
            with pytest.raises(NumericalFailureError, match="positive semidefiniteness"):
                integrate_propagator(coeffs, 0.25)
            with pytest.raises(ValueError, match="positive semidefinite"):
                GaussianPropagator(0.25, np.eye(2), m)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite_time(self, natural_system, t):
        with pytest.raises(ValueError, match="finite"):
            integrate_propagator(default_cl(natural_system), t)

    def test_propagator_validation(self):
        with pytest.raises(ValueError):
            GaussianPropagator(0.0, np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            GaussianPropagator(0.0, np.eye(2), -np.eye(2))
        with pytest.raises(ValueError):
            GaussianPropagator(0.0, np.zeros((2, 2)), np.zeros((2, 2)))

    @pytest.mark.parametrize("skew, symmetric", [(4e-13, True), (4e-12, False)])
    def test_symmetry_is_held_to_1e_12(self, skew, symmetric):
        # off-diagonal entries may differ by 1e-12 of max(1, max|M|)
        m = np.array([[3.0, 0.5 + skew], [0.5, 2.0]])
        if symmetric:
            GaussianPropagator(0.0, np.eye(2), m)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                GaussianPropagator(0.0, np.eye(2), m)

    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("flow-3x3", ValueError, "GaussianPropagator matrices must be 2x2"),
            ("smear-row", ValueError, "GaussianPropagator matrices must be 2x2"),
            ("reflection", NumericalFailureError, "flow matrix must preserve orientation"),
        ],
    )
    def test_misshapen_or_reflecting_flow_is_rejected(self, natural_system, case, error, message):
        x = symmetric_grid(2.0, 0.1)
        field = gaussian_field(x, x, np.zeros(2), 0.5 * np.eye(2))
        calls = {
            "flow-3x3": lambda: GaussianPropagator(0.0, np.eye(3), np.zeros((2, 2))),
            "smear-row": lambda: GaussianPropagator(0.0, np.eye(2), np.zeros(2)),
            "reflection": lambda: propagate_wigner(
                GaussianPropagator(0.0, np.diag([1.0, -1.0]), np.zeros((2, 2))),
                field, natural_system,
            ),
        }
        with pytest.raises(error, match=f"^{message}$"):
            calls[case]()

    @pytest.mark.parametrize(
        "name, t, a, m",
        [
            ("t", np.nan, np.eye(2), np.zeros((2, 2))),
            ("t", np.inf, np.eye(2), np.zeros((2, 2))),
            ("a", 1.0, np.array([[1.0, np.nan], [0.0, 1.0]]), np.zeros((2, 2))),
            ("m", 1.0, np.eye(2), np.array([[np.inf, 0.0], [0.0, 1.0]])),
        ],
        ids=["t-nan", "t-inf", "a-nan", "m-inf"],
    )
    def test_propagator_rejects_nonfinite(self, name, t, a, m):
        message = rf"GaussianPropagator\.{name}( = \S+ is not finite| has non-finite entries)$"
        with pytest.raises(ValueError, match=message):
            GaussianPropagator(t, a, m)

    def test_import_loads_no_ode_solver_or_scipy_linalg(self):
        # the propagator is one closed form summed in numpy, so no subpackage
        # needs an ODE solver or scipy.linalg; every scipy module is imported
        # by the functions that call it, so the import loads none, and the
        # root finder and the sparse eigensolver are not reached by the
        # reduced route
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import bohmdec.bath_dynamics, bohmdec.bohm_velocity\n"
            "import bohmdec.phase_space, bohmdec.quadratic_master\n"
            "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not scipy, scipy\n"
            "from bohmdec.bohm_velocity import ensemble_velocity\n"
            "from bohmdec.phase_space import (GridSpec, OscillatorSystemSpec,\n"
            "    band_wavefunction, build_energy_band_state, classical_orbit,\n"
            "    wigner_transform)\n"
            "from bohmdec.quadratic_master import (CaldeiraLeggettParams,\n"
            "    assemble_cl_coefficients, integrate_propagator, propagate_wigner)\n"
            "unused = ('scipy.integrate', 'scipy.linalg', 'scipy.optimize', 'scipy.sparse')\n"
            "assert not [m for m in unused if m in sys.modules]\n"
            "system = OscillatorSystemSpec()\n"
            "state = build_energy_band_state(6, 2)\n"
            "grid = GridSpec.for_orbit(classical_orbit(state, system), 2.0, 2.0)\n"
            "field = wigner_transform(band_wavefunction(state, system), grid, system)\n"
            "params = CaldeiraLeggettParams(1e-2, 10.0, 100.0)\n"
            "prop = integrate_propagator(assemble_cl_coefficients(system, params), 0.5)\n"
            "out = propagate_wigner(prop, field, system)\n"
            "assert np.isfinite(ensemble_velocity(out, system, grid.x[grid.x.size // 2]))\n"
            "loaded = [m for m in unused if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        run_fresh(code)

    @pytest.mark.parametrize(
        "call, loads",
        [
            ("wigner_transform(psi, grid, system).values", "scipy.fft"),
            ("propagate_wigner(prop, field, system).values", "scipy.ndimage"),
            ("np.array(ohmic.kernel_tables(1.1, 1.0, 1e-3, 400))", None),
        ],
        ids=["wigner_transform", "propagate_wigner", "kernel_tables"],
    )
    def test_first_call_loads_scipy_under_raising_float_state(self, call, loads):
        # The call that loads its scipy module, the first in a fresh
        # interpreter, runs under np.errstate(all="raise") and with every
        # warning an error, and returns what a second, warm call returns; the
        # ohmic kernel tables are numpy code and load none
        loaded = f"assert {loads!r} in sys.modules\n" if loads else "assert not scipy_loaded()\n"
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from bohmdec.bath_dynamics import SpectralDensity\n"
            "from bohmdec.phase_space import (GridSpec, OscillatorSystemSpec, WignerField,\n"
            "    band_wavefunction, build_energy_band_state, classical_orbit,\n"
            "    exact_oscillator_wigner, wigner_transform)\n"
            "from bohmdec.quadratic_master import (CaldeiraLeggettParams,\n"
            "    assemble_cl_coefficients, integrate_propagator, propagate_wigner)\n"
            "system = OscillatorSystemSpec()\n"
            "state = build_energy_band_state(6, 2)\n"
            "psi = band_wavefunction(state, system)\n"
            "grid = GridSpec.for_orbit(classical_orbit(state, system), 2.0, 2.0)\n"
            "values = exact_oscillator_wigner(1, grid.x[:, None], grid.p[None, :], system)\n"
            "field = WignerField(grid.x, grid.p, values, 0.0)\n"
            "params = CaldeiraLeggettParams(1e-2, 10.0, 100.0)\n"
            "prop = integrate_propagator(assemble_cl_coefficients(system, params), 0.5)\n"
            "ohmic = SpectralDensity.from_ohmic(system, 1e-2, 100.0)\n"
            "def scipy_loaded():\n"
            "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not scipy_loaded()\n"
            "with np.errstate(all='raise'):\n"
            f"    cold = {call}\n"
            f"{loaded}"
            f"warm = {call}\n"
            "assert np.array_equal(cold, warm)\n"
        )
        run_fresh(code)


class TestPropagateWigner:
    def test_delta_identity(self, natural_system):
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.zeros(2), 0.5 * np.eye(2))
        prop = GaussianPropagator(0.0, np.eye(2), np.zeros((2, 2)))
        out = propagate_wigner(prop, field, natural_system)
        np.testing.assert_allclose(out.values, field.values, atol=1e-12)
        assert any("spectral_smear" in note for note in out.notes)

    def test_delta_rotation_pullback(self, natural_system):
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=0.0, cutoff=1.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        prop = integrate_propagator(coeffs, 0.4)
        x = symmetric_grid(6.0, 0.05)
        mean0 = np.array([0.7, -0.4])
        cov0 = 0.5 * np.eye(2)
        field = gaussian_field(x, x, mean0, cov0)
        out = propagate_wigner(prop, field, natural_system)
        mean_t = prop.a @ mean0
        expected = gaussian_field(x, x, mean_t, prop.a @ cov0 @ prop.a.T)
        peak = expected.values.max()
        assert np.max(np.abs(out.values - expected.values)) <= 2e-3 * peak

    def test_zero_smear_rotation_is_exact(self, natural_system):
        # M = 0 takes the spectral path, where the smear multiplies by 1:
        # only the bicubic read along A is left
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=0.0, cutoff=1.0)
        prop = integrate_propagator(assemble_cl_coefficients(natural_system, params), 0.4)
        assert not prop.m.any()
        x = symmetric_grid(6.0, 0.05)
        mean0, cov0 = np.array([0.7, -0.4]), 0.5 * np.eye(2)
        out = propagate_wigner(prop, gaussian_field(x, x, mean0, cov0), natural_system)
        expected = gaussian_field(x, x, prop.a @ mean0, prop.a @ cov0 @ prop.a.T)
        peak = expected.values.max()
        assert np.max(np.abs(out.values - expected.values)) <= 1e-6 * peak

    def test_gaussian_moment_oracle(self, natural_system):
        coeffs = default_cl(natural_system)
        x = symmetric_grid(6.0, 0.05)
        mean0 = np.array([0.7, -0.4])
        cov0 = 0.5 * np.eye(2)
        field = gaussian_field(x, x, mean0, cov0)
        for t in (0.01, 0.1, 0.3, 1.0, 2.0):
            prop = integrate_propagator(coeffs, t)
            out = propagate_wigner(prop, field, natural_system)
            assert out.normalization() == pytest.approx(1.0, abs=1e-6)
            mean_t, cov_t = evolve_moments(coeffs, mean0, cov0, t)
            mean_grid, cov_grid = out.mean_and_covariance()
            np.testing.assert_allclose(mean_grid, mean_t, atol=1e-4)
            np.testing.assert_allclose(cov_grid, cov_t, atol=1e-4)
            expected = gaussian_field(x, x, mean_t, cov_t)
            peak = expected.values.max()
            assert np.max(np.abs(out.values - expected.values)) <= 1e-3 * peak

    def test_smear_past_edge_does_not_wrap(self, natural_system):
        # The smeared Gaussian's tail at the upper x edge is 3.2 widths out:
        # the grid keeps all but 7e-4 of the mass, yet a tail value wrapped
        # round to the lower edge would exceed 1e-3 of the peak.
        x = symmetric_grid(6.0, 0.05)
        cov0 = 0.25 * np.eye(2)
        m = 2.0 * np.eye(2)
        cov_t = cov0 + 0.5 * m
        mean = np.array([x[-1] - 3.2 * np.sqrt(cov_t[0, 0]), 0.0])
        field = gaussian_field(x, x, mean, cov0)
        out = propagate_wigner(GaussianPropagator(1.0, np.eye(2), m), field, natural_system)
        expected = gaussian_field(x, x, mean, cov_t)
        peak = expected.values.max()
        assert np.max(np.abs(out.values - expected.values)) <= 1e-3 * peak

    def test_matches_bounding_box_reference(self, natural_system):
        # Reference: a zero buffer covering the input grid and every
        # pulled-back point, smeared in Fourier space and read with
        # map_coordinates' own bicubic prefilter.
        state = build_energy_band_state(12, 4)
        grid = GridSpec.for_orbit(classical_orbit(state, natural_system), x_span=1.5, p_span=1.5)
        field = wigner_transform(band_wavefunction(state, natural_system), grid, natural_system)
        prop = integrate_propagator(default_cl(natural_system), 0.8)
        out = propagate_wigner(prop, field, natural_system)

        x, p, dx, dp = field.x_grid, field.p_grid, field.dx, field.dp
        a_inv = np.linalg.inv(prop.a)
        rows = (a_inv[0, 0] * x[:, None] + a_inv[0, 1] * p - x[0]) / dx
        cols = (a_inv[1, 0] * x[:, None] + a_inv[1, 1] * p - p[0]) / dp
        width_x = np.sqrt(0.5 * prop.m[0, 0]) / dx
        width_p = np.sqrt(0.5 * prop.m[1, 1]) / dp
        # the rotated corners pull back beyond 8 smearing widths of the grid
        assert rows.min() < -4 - 8.0 * width_x and cols.max() > p.size

        def span(index, size, width):
            margin = 4 + int(np.ceil(8.0 * width))
            lo = min(int(np.floor(index.min())), 0) - margin
            return lo, max(int(np.ceil(index.max())), size - 1) + margin + 1 - lo

        lo_x, n_x = span(rows, x.size, width_x)
        lo_p, n_p = span(cols, p.size, width_p)
        buffer = np.zeros((n_x, n_p))
        buffer[-lo_x : x.size - lo_x, -lo_p : p.size - lo_p] = field.values
        kx = 2.0 * np.pi * np.fft.fftfreq(n_x, dx)[:, None]
        kp = 2.0 * np.pi * np.fft.rfftfreq(n_p, dp)[None, :]
        m = prop.m
        gauss = np.exp(-0.25 * (m[0, 0] * kx**2 + 2.0 * m[0, 1] * kx * kp + m[1, 1] * kp**2))
        smeared = np.fft.irfft2(np.fft.rfft2(buffer) * gauss, s=buffer.shape)
        expected = ndimage.map_coordinates(
            smeared, [rows - lo_x, cols - lo_p], order=3, mode="constant"
        ) / np.linalg.det(prop.a)
        peak = np.abs(expected).max()
        assert np.max(np.abs(out.values - expected)) <= 1e-13 * peak

    @pytest.mark.parametrize("x0", [5.5, -5.5])
    def test_stencil_pad_is_pinned(self, natural_system, x0):
        # A Gaussian with 0.08 of its peak at the grid's edge, turned by 1e-3
        # and not smeared: the bicubic read at the edge takes coefficients two
        # cells past it. With the pad at that reach the field matches the
        # reference to 8.9e-10 of the peak; a one-cell pad read 9.0e-6.
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.array([x0, 0.0]), 0.05 * np.eye(2))
        turn = np.array([[1.0, 1e-3], [-1e-3, 1.0]])
        prop = GaussianPropagator(0.0, turn, np.zeros((2, 2)))
        expected, _ = smear_reference(prop, field, np.inf)
        out = propagate_wigner(prop, field, natural_system)
        assert np.max(np.abs(out.values - expected)) <= 1e-8 * expected.max()

    def test_buffer_pads_the_stencil_reach_and_eight_widths(self, natural_system):
        # each side takes the stencil's 2 cells and 8 smearing widths
        # sqrt(M / 2) / step, beyond which a point reads below e^-32 of the
        # peak; the length is then the next fast FFT length
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.zeros(2), 0.5 * np.eye(2))
        prop = GaussianPropagator(1.0, np.eye(2), 0.2 * np.eye(2))
        out = propagate_wigner(prop, field, natural_system)
        margin = 2 + int(np.ceil(8.0 * np.sqrt(0.1) / 0.05))
        size = sp_fft.next_fast_len(x.size + 2 * margin, real=True)
        assert out.notes[-2] == f"spectral_smear(buffer={size}x{size})"

    @pytest.mark.parametrize("cells", [1, 241**2, 1053 * 1617, 10**12])
    def test_tail_exponent_meets_its_bound(self, cells):
        # The module notes' bound: the cells dropped below e^-E_c move a spline
        # coefficient by at most 9 N e^-E_c max|w_in|, which must stay within
        # eps / 2 of it
        eps = np.finfo(float).eps
        assert 9.0 * cells * np.exp(-apply._tail_exponent(cells)) <= 0.5 * eps

    def test_shear_does_not_grow_buffer(self, natural_system):
        x = symmetric_grid(6.0, 0.05)
        mean0, cov0 = np.array([0.7, -0.4]), 0.5 * np.eye(2)
        field = gaussian_field(x, x, mean0, cov0)
        shear, m = np.array([[1.0, 1.0], [0.0, 1.0]]), 0.2 * np.eye(2)
        out = propagate_wigner(GaussianPropagator(1.0, shear, m), field, natural_system)
        expected = gaussian_field(x, x, shear @ mean0, shear @ (cov0 + 0.5 * m) @ shear.T)
        peak = expected.values.max()
        assert np.max(np.abs(out.values - expected.values)) <= 1e-10 * peak
        still = propagate_wigner(GaussianPropagator(1.0, np.eye(2), m), field, natural_system)
        assert out.notes[-2] == still.notes[-2]

    @pytest.mark.parametrize("m_pp", [0.0, -1e-12])
    def test_singular_smear_is_applied(self, natural_system, m_pp):
        # det M = 0 (or a round-off negative), yet the rank-1 smear is large
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.zeros(2), 0.5 * np.eye(2))
        prop = GaussianPropagator(1.0, np.eye(2), np.diag([1.0, m_pp]))
        out = propagate_wigner(prop, field, natural_system)
        _, cov = out.mean_and_covariance()
        np.testing.assert_allclose(cov, np.diag([1.0, 0.5]), atol=1e-5)
        assert out.notes[-2].startswith("spectral_smear")

    def test_field_does_not_depend_on_worker_count(self, canonical_cl_run, monkeypatch):
        # the spectrum and the smear are row by row; each pullback span shifts
        # its offset by its first row, which rounds differently
        run = canonical_cl_run
        monkeypatch.setattr(_parallel, "WORKERS", 1)
        serial = propagate_wigner(run.prop_five, run.field0, run.system).values
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        three = propagate_wigner(run.prop_five, run.field0, run.system).values
        peak = np.max(np.abs(serial))
        for values in (three, run.field_five.values):
            assert np.max(np.abs(values - serial)) <= 1e-14 * peak

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (None, 1)])
    def test_workers_without_an_affinity_call(self, monkeypatch, cpus, workers):
        # Without os.sched_getaffinity (macOS) the worker count is the CPU
        # count, or one when that is unknown
        before = _parallel.WORKERS
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        try:
            assert importlib.reload(_parallel).WORKERS == workers
        finally:
            monkeypatch.undo()
            importlib.reload(_parallel)
        assert _parallel.WORKERS == before

    @pytest.mark.parametrize("rows", [1, 64])
    def test_field_does_not_depend_on_block_rows(self, canonical_cl_run, monkeypatch, rows):
        # _BLOCK_ROWS sets how many rows a pass takes at a time; a block's
        # multiply keeps the columns of its furthest-reaching row, so other
        # blocks keep a few cells below e^-E_c, within the cut's bound
        run = canonical_cl_run
        monkeypatch.setattr(apply, "_BLOCK_ROWS", rows)
        out = propagate_wigner(run.prop_five, run.field0, run.system).values
        eps = np.finfo(float).eps
        bound = 0.5 * eps * np.abs(run.field0.values).max() / np.linalg.det(run.prop_five.a)
        assert np.max(np.abs(out - run.field_five.values)) <= bound

    @pytest.mark.parametrize("workers", [1, 3])
    def test_caller_float_state_reaches_the_workers(self, monkeypatch, workers):
        # A row-stage job that underflows: under the caller's under="raise"
        # each worker raises as the inline pass does, and the worker's
        # exception reaches the caller.
        monkeypatch.setattr(_parallel, "WORKERS", workers)
        assert _parallel.span_count(2 * workers) == workers
        tiny = np.full(2 * workers, 1e-300)
        caught = [None] * workers

        def catch(worker, rows):
            try:
                tiny[rows] * 1e-300
            except FloatingPointError:
                caught[worker] = True
            else:
                caught[worker] = False

        def underflow(worker, rows):
            tiny[rows] * 1e-300

        n = tiny.size
        with np.errstate(under="raise"):
            _parallel.run_blocks(catch, 0, n, n)
            assert caught == [True] * workers
            with pytest.raises(FloatingPointError, match="underflow"):
                _parallel.run_blocks(underflow, 0, n, n)
        _parallel.run_blocks(catch, 0, n, n)
        assert caught == [False] * workers

    def test_first_span_runs_on_the_calling_thread(self, monkeypatch):
        # span 0 runs inline and each other span on a pool thread, so n spans
        # start n - 1 threads
        monkeypatch.setattr(_parallel, "WORKERS", 3)
        caller = threading.get_ident()
        done = []
        _parallel.run_blocks(
            lambda k, rows: done.append((k, rows.start, rows.stop, threading.get_ident())),
            0, 6, 6,
        )
        done.sort()
        assert [entry[:3] for entry in done] == [(0, 0, 2), (1, 2, 4), (2, 4, 6)]
        assert done[0][3] == caller
        assert caller not in {entry[3] for entry in done[1:]}

    def test_inline_span_raises_after_the_others_finish(self, monkeypatch):
        monkeypatch.setattr(_parallel, "WORKERS", 2)
        finished = threading.Event()

        def job(k, rows):
            if k == 0:
                raise RuntimeError("span 0 failed")
            time.sleep(0.05)
            finished.set()

        with pytest.raises(RuntimeError, match="span 0 failed"):
            _parallel.run_blocks(job, 0, 2, 2)
        assert finished.is_set()

    def test_smear_evaluates_no_underflowing_factor(self, canonical_cl_run):
        # The cut drops every factor below e^-E_c (E_c = 53.4 here) before it
        # is evaluated, so the 5 t_c smear runs under under="raise", bitwise
        # as under the default float state
        run = canonical_cl_run
        with np.errstate(under="raise"):
            out = propagate_wigner(run.prop_five, run.field0, run.system)
        np.testing.assert_array_equal(out.values, run.field_five.values)

    @pytest.mark.parametrize("case", ["band_five_t_c", "tilted_one_t_c", "one_cell"])
    def test_cut_moves_no_value_by_half_an_ulp(self, canonical_cl_run, monkeypatch, case):
        # Dropping the spectrum cells whose smearing factor is below e^-E_c,
        # E_c = ln(20 N_in / eps), moves an output value by at most
        # eps/2 max|w_in| / det A. A single cell has a flat spectrum, the
        # worst case for the bound.
        run = canonical_cl_run
        field = run.field0
        if case == "band_five_t_c":
            prop = run.prop_five
        elif case == "tilted_one_t_c":
            prop = integrate_propagator(
                assemble_cl_coefficients(run.system, run.params), run.report.t_c
            )
            assert abs(prop.m[0, 1]) > 0.8 * np.sqrt(prop.m[0, 0] * prop.m[1, 1])
        else:
            x = symmetric_grid(6.0, 0.05)
            values = np.zeros((x.size, x.size))
            values[x.size // 2, x.size // 2] = 1.0 / 0.05**2
            field = WignerField(x, x, values)
            prop = GaussianPropagator(1.0, np.array([[1.0, 0.3], [-0.2, 1.0]]), 0.1 * np.eye(2))
        eps = np.finfo(float).eps
        bound = 0.5 * eps * np.abs(field.values).max() / np.linalg.det(prop.a)
        out = propagate_wigner(prop, field, run.system).values
        # the uncut smear runs the calls of a smear that drops nothing
        monkeypatch.setattr(apply, "_tail_exponent", lambda cells: np.inf)
        uncut = propagate_wigner(prop, field, run.system).values
        assert np.max(np.abs(out - uncut)) <= bound
        # the reference's own cells beyond E_c move it by less than the bound,
        # and the cut field matches the whole reference to round-off
        whole, dropped = smear_reference(prop, field, np.log(20.0 * field.values.size / eps))
        assert np.max(np.abs(dropped)) <= bound
        assert np.max(np.abs(out - whole)) <= 1e-13 * np.abs(whole).max()

    def test_passes_along_x_take_only_the_kept_columns(self, canonical_cl_run, monkeypatch):
        # At 5 t_c most columns of the half spectrum are below e^-E_c in every
        # row and are never transformed along x; as t -> 0, M shrinks, the
        # factor stays near 1 out to the last column, and every column is kept.
        run = canonical_cl_run
        widths = []
        fft = sp_fft.fft

        def recording(values, *args, **kwargs):
            widths.append(values.shape[1])
            return fft(values, *args, **kwargs)

        monkeypatch.setattr(sp_fft, "fft", recording)
        coeffs = assemble_cl_coefficients(run.system, run.params)
        for t, cut in ((run.t_five, True), (1e-3 * run.report.t_c, False)):
            widths.clear()
            out = propagate_wigner(integrate_propagator(coeffs, t), run.field0, run.system)
            n_p = int(out.notes[-2].rstrip(")").split("x")[1])
            assert len(widths) == 1
            assert (widths[0] < n_p // 2 + 1) if cut else (widths[0] == n_p // 2 + 1)

    def test_one_buffer_and_one_output_at_peak(self, natural_system):
        # Every stage runs in one complex buffer whose float view holds the
        # padded field; the FFT passes and the smearing factor touch
        # _BLOCK_ROWS rows of it at a time. A second buffer-sized array (a
        # padded copy, a separate spectrum or a whole-buffer block) takes the
        # peak to about 1.3 times the one buffer and the output.
        x, p = symmetric_grid(6.0, 0.02), symmetric_grid(8.0, 0.02)
        field = gaussian_field(x, p, np.array([0.7, -0.4]), 0.5 * np.eye(2))
        prop = GaussianPropagator(1.0, np.array([[1.0, 0.3], [-0.2, 1.0]]), 0.2 * np.eye(2))
        out, peak = traced_peak(propagate_wigner, prop, field, natural_system)
        n_x, n_p = map(int, out.notes[-2].split("=")[1].rstrip(")").split("x"))
        # M pads both axes
        assert n_x > x.size + 200 and n_p > p.size + 200
        allowed = 1.1 * (n_x * (n_p // 2 + 1) * 16 + out.values.nbytes)
        assert peak <= allowed, (peak, allowed)

    def test_nan_cell_raises(self, natural_system):
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.array([0.7, -0.4]), 0.5 * np.eye(2))
        field.values[100, 100] = np.nan
        prop = integrate_propagator(default_cl(natural_system), 0.1)
        with pytest.raises(NumericalFailureError, match="drifted"):
            propagate_wigner(prop, field, natural_system)

    @pytest.mark.parametrize("widths, drifts", [(3.2, False), (2.5, True)])
    def test_mass_guard_is_1e_3(self, natural_system, widths, drifts):
        # a smeared Gaussian whose centre ends 3.2 widths inside the upper x
        # edge loses 6.9e-4 of its mass past it, and 6.2e-3 at 2.5 widths
        x = symmetric_grid(6.0, 0.05)
        mean = np.array([x[-1] - widths * np.sqrt(1.25), 0.0])
        field = gaussian_field(x, x, mean, 0.25 * np.eye(2))
        prop = GaussianPropagator(1.0, np.eye(2), 2.0 * np.eye(2))
        if drifts:
            with pytest.raises(NumericalFailureError, match="drifted by 6.2"):
                propagate_wigner(prop, field, natural_system)
        else:
            out = propagate_wigner(prop, field, natural_system)
            assert float(out.notes[-1].split("=")[1]) == pytest.approx(6.9e-4, rel=0.01)

    def test_zero_field_stays_zero(self, natural_system):
        # no mass in, no mass out: a residual of 0, not 0 / 0
        x = symmetric_grid(6.0, 0.05)
        prop = GaussianPropagator(1.0, np.eye(2), 0.2 * np.eye(2))
        out = propagate_wigner(prop, WignerField(x, x, np.zeros((x.size, x.size))), natural_system)
        assert not out.values.any() and out.notes[-1] == "mass_residual=0.000e+00"

    def test_mass_pushed_off_the_grid_raises(self, natural_system):
        # x -> 2x carries the centre from 2.5 to 5 and the width from 0.5 to
        # 1, so 15.9% of the mass lands beyond x = 6: far over the 1e-3 bound
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.array([2.5, 0.0]), 0.25 * np.eye(2))
        prop = GaussianPropagator(t=1.0, a=np.diag([2.0, 0.5]), m=np.zeros((2, 2)))
        with pytest.raises(NumericalFailureError, match="drifted"):
            propagate_wigner(prop, field, natural_system)

    def test_semigroup_field_route(self, natural_system):
        coeffs = default_cl(natural_system)
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.array([0.7, -0.4]), 0.5 * np.eye(2))
        half = integrate_propagator(coeffs, 0.15)
        full = integrate_propagator(coeffs, 0.3)
        two_steps = propagate_wigner(half, propagate_wigner(half, field, natural_system), natural_system)
        one_step = propagate_wigner(full, field, natural_system)
        peak = one_step.values.max()
        assert np.max(np.abs(two_steps.values - one_step.values)) <= 1e-4 * peak
        assert two_steps.time_stamp == pytest.approx(one_step.time_stamp)

    def test_band_state_positive_past_threshold(self, natural_system):
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=2e5, cutoff=1e4
        )
        coeffs = assemble_cl_coefficients(natural_system, params)
        t_loc = np.sqrt(
            natural_system.hbar
            / (natural_system.mass * params.damping_rate * params.thermal_energy)
        )
        t_star = (3.0 / 16.0) ** 0.25 * t_loc
        prop = integrate_propagator(coeffs, t_star)
        assert np.linalg.det(prop.m) >= natural_system.hbar**2

        state = build_energy_band_state(12, 4)
        orbit = classical_orbit(state, natural_system)
        grid = GridSpec.for_orbit(orbit, x_span=1.5, p_span=1.5)
        field = wigner_transform(band_wavefunction(state, natural_system), grid, natural_system)
        assert field.values.min() < -1e-4 * field.values.max()

        sigma_p = np.sqrt(0.5 * prop.m[1, 1])
        wide = widen_momentum_axis(field, grid.p[-1] + 4.0 * sigma_p)
        out = propagate_wigner(prop, wide, natural_system)
        assert out.values.min() >= -1e-4 * out.values.max()

    @pytest.mark.parametrize("j11, j12", [(0.0, 0.0), (0.5, 0.3), (0.5, -0.3)])
    def test_agreement_with_pde_oracle(self, natural_system, j11, j12):
        # default_cl's drift and J22 with position and cross diffusion added
        # (det J = 0.01 for the nonzero pairs), so every diffusion term of the
        # oracle runs
        base = default_cl(natural_system)
        coeffs = MasterEqCoefficients(
            h1=base.h1, h2=base.h2, h3=base.h3, gamma=base.gamma,
            j11=j11, j12=j12, j22=base.j22,
        )
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.array([0.7, -0.4]), 0.5 * np.eye(2))
        t = 0.1
        prop_route = propagate_wigner(
            integrate_propagator(coeffs, t), field, natural_system
        )
        pde_route = pde_oracle_evolve(coeffs, field, t, steps=100)
        peak = prop_route.values.max()
        assert np.max(np.abs(prop_route.values - pde_route.values)) <= 1e-3 * peak


class TestPdeOracle:
    def test_null_generator_is_identity(self, natural_system):
        coeffs = MasterEqCoefficients(
            h1=0.0, h2=0.0, h3=0.0, gamma=0.0, j11=0.0, j12=0.0, j22=0.0
        )
        x = symmetric_grid(5.0, 0.1)
        field = gaussian_field(x, x, np.zeros(2), 0.5 * np.eye(2))
        out = pde_oracle_evolve(coeffs, field, 0.5, steps=20)
        np.testing.assert_allclose(out.values, field.values, atol=1e-15)

    def test_full_period_rotation(self, natural_system):
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=0.0, cutoff=1.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        x = symmetric_grid(5.0, 0.05)
        field = gaussian_field(x, x, np.array([1.0, 0.0]), 0.5 * np.eye(2))
        period = 2.0 * np.pi / natural_system.renormalized_frequency
        out = pde_oracle_evolve(coeffs, field, period, steps=2000)
        l1 = np.sum(np.abs(out.values - field.values)) * field.dx * field.dp
        assert l1 <= 1e-3

    def test_instability_detected(self, natural_system):
        coeffs = default_cl(natural_system)
        x = symmetric_grid(5.0, 0.05)
        field = gaussian_field(x, x, np.array([1.0, 0.0]), 0.5 * np.eye(2))
        with pytest.raises(NumericalFailureError):
            pde_oracle_evolve(coeffs, field, 2.0, steps=4)


class TestDecoherenceFactor:
    def test_diagonal_and_reference_values(self, natural_system):
        params = CaldeiraLeggettParams(
            damping_rate=0.05, thermal_energy=1000.0, cutoff=100.0
        )
        x = np.array([0.3])
        assert position_decoherence_factor(
            params, natural_system, 0.01, x, x
        ) == pytest.approx(1.0)
        # Lambda = 100, t = 0.01, separation 1 -> exp(-1)
        value = position_decoherence_factor(
            params, natural_system, 0.01, np.array([1.0]), np.array([0.0])
        )
        assert value == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_validity_window_enforced(self, natural_system):
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=10.0, cutoff=100.0
        )
        with pytest.raises(DomainValidityError):
            position_decoherence_factor(
                params, natural_system, 0.15, np.array([1.0]), np.array([0.0])
            )
        strong = CaldeiraLeggettParams(
            damping_rate=20.0, thermal_energy=10.0, cutoff=100.0
        )
        with pytest.raises(DomainValidityError):
            position_decoherence_factor(
                strong, natural_system, 0.008, np.array([1.0]), np.array([0.0])
            )

    @pytest.mark.parametrize(
        "t, x, x_prime",
        [
            (np.nan, 1.0, 0.0),
            (np.inf, 1.0, 0.0),
            (-np.inf, 1.0, 0.0),
            (-0.05, 1.0, 0.0),
            (0.01, np.nan, 0.0),
            (0.01, np.inf, 0.0),
            (0.01, 1.0, np.nan),
        ],
    )
    def test_rejects_bad_time_and_coordinates(self, natural_system, t, x, x_prime):
        params = CaldeiraLeggettParams(
            damping_rate=0.05, thermal_energy=1000.0, cutoff=100.0
        )
        with pytest.raises(ValueError, match="finite|non-negative"):
            position_decoherence_factor(
                params, natural_system, t, np.array([x]), np.array([x_prime])
            )

    def test_matches_density_matrix_oracle(self, natural_system):
        """Off-diagonal decay of the evolved density matrix vs the factor.

        The dissipative suppression is isolated by taking the ratio of the
        damped run to a matching unitary run, both through the full
        transform / propagate / inverse-transform pipeline.
        """
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=10.0, cutoff=100.0
        )
        cl_coeffs = assemble_cl_coefficients(natural_system, params)
        unitary = assemble_cl_coefficients(
            natural_system,
            CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=0.0, cutoff=100.0),
        )
        t = 0.07
        separation = 3.0

        def cat(xs: np.ndarray) -> np.ndarray:
            lobe = (natural_system.mass * natural_system.renormalized_frequency
                    / (np.pi * natural_system.hbar)) ** 0.25
            width = natural_system.mass * natural_system.renormalized_frequency / (
                2.0 * natural_system.hbar
            )
            return (
                lobe
                * (
                    np.exp(-width * (xs - separation) ** 2)
                    + np.exp(-width * (xs + separation) ** 2)
                )
                / np.sqrt(2.0)
            )

        grid = GridSpec(x=symmetric_grid(7.0, 0.1), p=symmetric_grid(5.0, 0.05))
        field = wigner_transform(cat, grid, natural_system)

        damped = propagate_wigner(
            integrate_propagator(cl_coeffs, t), field, natural_system
        )
        reference = propagate_wigner(
            integrate_propagator(unitary, t), field, natural_system
        )
        point = np.array([separation])
        off_damped = density_matrix_from_wigner(
            damped, natural_system, point, -point
        )
        off_reference = density_matrix_from_wigner(
            reference, natural_system, point, -point
        )
        ratio = float(np.abs(off_damped[0]) / np.abs(off_reference[0]))
        factor = float(
            position_decoherence_factor(params, natural_system, t, point, -point)[0]
        )
        assert factor == pytest.approx(np.exp(-0.2 * t * 4.0 * separation**2), rel=1e-12)
        assert abs(ratio - factor) <= 0.1 * factor


class TestNonnegativityThreshold:
    def test_high_temperature_constant(self, natural_system):
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=2e5, cutoff=1e4
        )
        coeffs = assemble_cl_coefficients(natural_system, params)
        t_star = nonnegativity_threshold(coeffs, natural_system)
        t_loc = np.sqrt(
            natural_system.hbar
            / (natural_system.mass * params.damping_rate * params.thermal_energy)
        )
        expected_ratio = (3.0 / 16.0) ** 0.25
        assert t_star is not None
        assert abs(t_star / t_loc - expected_ratio) <= 0.02 * expected_ratio

    @pytest.mark.parametrize("thermal_energy", [1e15, 1e16, 1e18])
    def test_threshold_when_first_trial_already_passes(self, natural_system, thermal_energy):
        # det M > hbar^2 already at 1e-6 / max|K|, so the search halves its
        # trial from the drift's time scale 1 / max|K| down to the crossing
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=thermal_energy, cutoff=1e3
        )
        coeffs = assemble_cl_coefficients(natural_system, params)
        first_trial = 1e-6 / np.abs(coeffs.drift_matrix(0.0)).max()
        det_first = np.linalg.det(integrate_propagator(coeffs, first_trial).m)
        assert det_first > natural_system.hbar**2
        t_star = nonnegativity_threshold(coeffs, natural_system)
        t_loc = np.sqrt(
            natural_system.hbar
            / (natural_system.mass * params.damping_rate * params.thermal_energy)
        )
        expected_ratio = (3.0 / 16.0) ** 0.25
        assert t_star is not None and 0.0 < t_star < first_trial
        assert abs(t_star / t_loc - expected_ratio) <= 0.02 * expected_ratio

    @pytest.mark.parametrize("thermal_energy", [1e14, 1e15, 1e18, 1e22, 1e24])
    def test_threshold_solves_det_condition_when_hot(self, natural_system, thermal_energy):
        # crossing times of 7e-12 to 1e-6: an absolute bracket tolerance of
        # 2e-12 left det M / hbar^2 - 1 at up to 2.5e-6 here, and a bracket
        # from 0 to a fixed first trial of 1e-6 / max|K| left it at 1.9e-10
        # for kT = 1e24 (6.7e-7 at 1e22 for a trial of 1e-2 / max|K|)
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=thermal_energy, cutoff=1e3
        )
        coeffs = assemble_cl_coefficients(natural_system, params)
        t_star = nonnegativity_threshold(coeffs, natural_system)
        det_at_star = np.linalg.det(integrate_propagator(coeffs, t_star).m)
        assert abs(det_at_star / natural_system.hbar**2 - 1.0) <= 1e-10

    def test_threshold_solves_det_condition(self, natural_system):
        coeffs = default_cl(natural_system)
        t_star = nonnegativity_threshold(coeffs, natural_system)
        assert t_star is not None
        det_at_star = np.linalg.det(integrate_propagator(coeffs, t_star).m)
        assert det_at_star == pytest.approx(natural_system.hbar**2, rel=1e-6)

    def test_slow_diffusion_crosses_after_many_doublings(self, natural_system):
        # undamped with D = 1e-5: det M reaches hbar^2 at t = 5e4, 16
        # doublings past the drift's time scale of 1
        coeffs = MasterEqCoefficients(
            h1=1.0, h2=1.0, h3=0.0, gamma=0.0, j11=0.0, j12=0.0, j22=1e-5
        )
        t_star = nonnegativity_threshold(coeffs, natural_system)
        assert 2.0**15 < t_star < 2.0**16
        det_at_star = np.linalg.det(integrate_propagator(coeffs, t_star).m)
        assert det_at_star == pytest.approx(natural_system.hbar**2, rel=1e-10)

    def test_determinant_that_never_grows_raises(self, natural_system):
        # no drift and diffusion in p alone: M = 4 J t keeps det M = 0 through
        # the 80 doublings, up to t = 2^80
        coeffs = MasterEqCoefficients(
            h1=0.0, h2=0.0, h3=0.0, gamma=0.0, j11=0.0, j12=0.0, j22=1.0
        )
        with pytest.raises(NumericalFailureError, match="never reached"):
            nonnegativity_threshold(coeffs, natural_system)

    def test_zero_diffusion_reports_no_threshold(self, natural_system):
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=10.0, cutoff=10.0)
        coeffs = assemble_cl_coefficients(natural_system, params)
        assert nonnegativity_threshold(coeffs, natural_system) is None

    def test_det_monotone_over_scan(self, natural_system):
        coeffs = default_cl(natural_system)
        dets = [
            np.linalg.det(integrate_propagator(coeffs, t).m)
            for t in (0.3, 0.6, 1.2, 2.4, 4.8)
        ]
        assert all(later >= earlier for earlier, later in zip(dets, dets[1:]))
