"""Tests for the explicit-bath route: spectral integrals, Volterra solve, blocks."""

from __future__ import annotations

import dataclasses
import warnings

import mpmath as mp
import numpy as np
import pytest

from bohmdec.bath_dynamics import (
    BathSpec,
    SpectralDensity,
    cl_m_tilde_asymptote,
    cl_sigma3_squared_asymptote,
    conditional_kernel,
    conditional_velocity,
    counterterm_bare_frequency,
    discretize_spectral_density,
    exact_bath_matrices,
    m_tilde_matrix,
    reversibility_residuals,
    sample_bath,
    sigma3_squared,
    solve_g_kernel,
    weak_coupling_matrices,
)
from bohmdec.bath_dynamics._trig import cin, pair_kernel
from bohmdec.bath_dynamics.matrices import _spectral_norm
from bohmdec.bohm_velocity import initial_velocity
from bohmdec.errors import CouplingStrengthWarning
from bohmdec.phase_space import (
    OscillatorSystemSpec,
    band_wavefunction,
    build_energy_band_state,
    classical_orbit,
    wkb_amplitudes,
)
from bohmdec.quadratic_master import CaldeiraLeggettParams

ORACLE_DIGITS = 30


def mp_integral(f, upper: float, rate: float) -> float:
    """``integral_0^upper f`` by mpmath for ``f`` oscillating at up to ``rate``.

    The interval is split every ~20 periods of the oscillation, where the
    Gauss-Legendre error estimate is reliable; the estimate is checked.
    """
    pieces = max(1, int(upper * rate / (40.0 * np.pi)))
    with mp.workdps(ORACLE_DIGITS):
        value, error = mp.quad(
            f, mp.linspace(0, mp.mpf(upper), pieces + 1), method="gauss-legendre", error=True
        )
        assert error <= 1e-20 * max(abs(value), 1e-30)
        return value


def oracle_params() -> CaldeiraLeggettParams:
    return CaldeiraLeggettParams(damping_rate=1e-2, thermal_energy=10.0, cutoff=20.0)


def on_grid_step(t: float, fastest: float, refine: int = 1) -> float:
    """Largest allowed solver step that lands ``t`` on a node, divided by ``refine``."""
    return t / (refine * int(np.ceil(t * 20.0 * fastest / (2.0 * np.pi))))


class TestClosedForms:
    @pytest.mark.parametrize("x", [1e-3, 0.05, 0.49, 0.51, 2.0, 500.0])
    def test_cin_matches_mpmath(self, x):
        with mp.workdps(ORACLE_DIGITS):
            expected = mp.quad(lambda u: (1 - mp.cos(u)) / u, mp.linspace(0, x, 20))
        assert float(cin(x)) == pytest.approx(float(expected), rel=1e-13, abs=0.0)
        assert float(cin(-x)) == float(cin(x))

    @pytest.mark.parametrize(
        "bare, cutoff", [(1.0, 50.0), (3.0, 2.0), (2.0, 2.0)], ids=["above", "below", "equal"]
    )
    def test_kernel_tables_match_mpmath(self, bare, cutoff):
        gamma, mass = 1e-2, 1.5
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(mass=1.0), gamma, cutoff)
        times = np.linspace(0.0, 2.5, 501)
        tables = spectral.kernel_tables(bare, mass, times)
        b = mp.mpf(bare)
        kernels = (
            lambda w, tau: (w * mp.sin(b * tau) - b * mp.sin(w * tau)) / (w * w - b * b),
            lambda w, tau: w * b * (mp.cos(b * tau) - mp.cos(w * tau)) / (w * w - b * b),
            lambda w, tau: w * b * (w * mp.sin(w * tau) - b * mp.sin(b * tau)) / (w * w - b * b),
        )
        for index in (0, 1, 37, 220, 500):
            tau = mp.mpf(float(times[index]))
            for order, kernel in enumerate(kernels):
                integral = mp_integral(
                    lambda w: 2 * gamma * w / mp.pi * kernel(w, tau),
                    cutoff,
                    float(tau),
                )
                expected = float(2 / (mass * b) * integral)
                peak = np.abs(tables[order]).max()
                assert abs(tables[order][index] - expected) <= 1e-12 * peak, (order, index)

    @pytest.mark.parametrize("x", [1e-3, 0.05, 0.49, 0.51, 2.0, 500.0, 4000.0])
    def test_slice_integrals_match_mpmath(self, x):
        system = OscillatorSystemSpec(mass=1.7, hbar=0.6)
        gamma, cutoff = 1e-3, 1e3
        t = x / cutoff
        spectral = SpectralDensity.from_ohmic(system, gamma, cutoff)
        m, hbar = system.mass, system.hbar
        # integrals over omega in [0, cutoff] of the definitions, with u = omega t
        with mp.workdps(ORACLE_DIGITS):
            q = mp_integral(lambda u: (u - mp.sin(u)) ** 2 / u**3, x, 2.0)
            r = mp_integral(lambda u: (u - mp.sin(u)) * (1 - mp.cos(u)) / u**2, x, 2.0)
            p = mp_integral(lambda u: (1 - mp.cos(u)) ** 2 / u, x, 2.0)
            s = mp_integral(lambda u: (mp.sin(u) - u * mp.cos(u)) ** 2 / u**3, x, 2.0)
            xx, xp, pp, s3 = (2 * m * gamma / mp.pi * v for v in (t * t * q, t * r, p, t * t * s))
        expected = np.array(
            [
                [float(2 * hbar / m**2 * xx), float(-2 * hbar / m * xp)],
                [float(-2 * hbar / m * xp), float(2 * hbar * pp)],
            ]
        )
        np.testing.assert_allclose(m_tilde_matrix(spectral, system, t), expected, rtol=1e-12)
        assert sigma3_squared(spectral, system, t) == pytest.approx(
            float(2 / (hbar * m**2) * s3), rel=1e-12, abs=0.0
        )

    def test_pair_kernel_matches_mpmath_across_degeneracy(self):
        # a = b (1 + delta): delta = 0 is the degenerate limit, 1e-9 to 5e-8
        # straddle the old branch cut, the rest are generic pairs on both
        # sides of b
        deltas = np.array([0.0, 1e-9, 2e-8, 5e-8, 1e-6, 0.3, -0.5, 3.0])
        phases = np.array([0.013, 0.9, 3.9, 52.0])
        b = 1.3
        a = b * (1.0 + deltas[:, None])
        tau = phases[None, :] / b
        got = pair_kernel(a, b, tau)
        with mp.workdps(50):
            for i, j in np.ndindex(a.shape):
                x, y, t = mp.mpf(float(a[i, j])), mp.mpf(b), mp.mpf(float(tau[0, j]))
                if x == y:
                    u = x * t
                    expected = (
                        (mp.sin(u) - u * mp.cos(u)) / (2 * x),
                        u * mp.sin(u) / 2,
                        x * (mp.sin(u) + u * mp.cos(u)) / 2,
                    )
                else:
                    split = x * x - y * y
                    expected = (
                        (x * mp.sin(y * t) - y * mp.sin(x * t)) / split,
                        x * y * (mp.cos(y * t) - mp.cos(x * t)) / split,
                        x * y * (x * mp.sin(x * t) - y * mp.sin(y * t)) / split,
                    )
                for order, value in enumerate(expected):
                    assert got[order][i, j] == pytest.approx(float(value), rel=1e-11, abs=0.0), (
                        order, deltas[i], phases[j]
                    )

    def test_discretized_bath_converges_at_second_order(self):
        system = OscillatorSystemSpec()
        params = oracle_params()
        times = np.linspace(0.0, 2.0, 401)
        ohmic = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        reference = ohmic.kernel_tables(1.0, 1.0, times)
        errors = []
        for n_modes in (64, 128, 256, 512):
            bath = discretize_spectral_density(params, system, n_modes)
            tables = SpectralDensity.from_bath(bath).kernel_tables(1.0, 1.0, times)
            errors.append(
                max(np.abs(a - r).max() / np.abs(r).max() for a, r in zip(tables, reference))
            )
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios >= 3.5) & (ratios <= 4.5)), (errors, ratios)

    @pytest.mark.parametrize("log_cut", [3.9, 6.2, 8.0])
    def test_closed_forms_approach_log_asymptotes(self, log_cut):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        t = np.exp(log_cut) / params.cutoff
        spectral = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        m_tilde = m_tilde_matrix(spectral, system, t)
        m_asym = cl_m_tilde_asymptote(params, system, t)
        s3 = sigma3_squared(spectral, system, t)
        s3_asym = cl_sigma3_squared_asymptote(params, system, t)
        gap = max(np.abs(m_tilde / m_asym - 1.0).max(), abs(s3 / s3_asym - 1.0))
        assert gap <= 0.25 / np.exp(log_cut)


class TestSolveGKernel:
    def test_reversibility_residuals_fall_at_fourth_order(self):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 32)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        spectral = SpectralDensity.from_bath(bath)
        t = 2.0
        residuals = []
        for refine in (1, 2, 4, 8):
            step = on_grid_step(t, max(bare, bath.frequencies.max()), refine)
            table = solve_g_kernel(spectral, bare, t, step, mass=system.mass)
            forward = exact_bath_matrices(bath, coupled, table, t, include_d_corrections=True)
            backward = exact_bath_matrices(bath, coupled, table, -t, include_d_corrections=True)
            residuals.append(max(reversibility_residuals(forward, backward).values()))
        ratios = np.array(residuals[:-1]) / np.array(residuals[1:])
        assert np.all(ratios >= 12.0), (residuals, ratios)

    @pytest.mark.parametrize("shape", [(40, 40), (12, 70), (70, 12)])
    def test_spectral_norm_matches_svd(self, shape):
        mat = np.random.default_rng(5).standard_normal(shape)
        assert _spectral_norm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)


class TestBlocks:
    def test_weak_coupling_blocks_match_exact_to_second_order(self):
        system = OscillatorSystemSpec()
        base = discretize_spectral_density(oracle_params(), system, 16)
        t = 1.0
        gaps = []
        for scale in (1.0, 0.5, 0.25, 0.125):
            bath = dataclasses.replace(base, couplings=scale * base.couplings)
            bare = counterterm_bare_frequency(bath, system)
            coupled = dataclasses.replace(system, bare_frequency=bare)
            step = on_grid_step(t, max(bare, bath.frequencies.max()), refine=4)
            table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, t, step, mass=system.mass)
            exact = exact_bath_matrices(bath, coupled, table, t)
            with warnings.catch_warnings():
                # the unscaled bath sits above the weak-coupling regime bound
                warnings.simplefilter("ignore", CouplingStrengthWarning)
                weak = weak_coupling_matrices(bath, system, t)
            gaps.append(
                [
                    np.abs(exact.a - weak.a).max(),
                    np.abs(exact.b - weak.b).max() / np.abs(exact.b).max(),
                    np.abs(exact.c - weak.c).max() / np.abs(exact.c).max(),
                ]
            )
        gaps = np.array(gaps)
        ratios = gaps[:-1] / gaps[1:]
        assert np.all((ratios >= 3.5) & (ratios <= 4.5)), (gaps, ratios)


class TestBathSpec:
    @pytest.mark.parametrize(
        "field",
        [
            # BathSpec fields
            "masses", "frequencies", "couplings", "thermal_energy", "hbar",
            # ohmic SpectralDensity fields
            "damping_rate", "cutoff", "mass",
            # solve_g_kernel arguments
            "bare_frequency", "t_max", "step",
        ],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, field, bad):
        bath = dict(
            masses=np.ones(3),
            frequencies=np.array([1.0, 2.0, 3.0]),
            couplings=np.array([0.1, -0.1, 0.2]),
            thermal_energy=1.0,
            hbar=1.0,
        )
        ohmic = dict(kind="ohmic", damping_rate=1e-2, cutoff=20.0, mass=1.0)
        solver = dict(bare_frequency=1.0, t_max=1.0, step=0.01)
        for values in (bath, ohmic, solver):
            if field not in values:
                continue
            if np.ndim(values[field]):
                values[field][1] = bad
            else:
                values[field] = bad
        with pytest.raises(ValueError, match="finite"):
            BathSpec(**bath)
            solve_g_kernel(SpectralDensity(**ohmic), **solver)


class TestSampling:
    def test_thermal_moments_and_seed_reproducibility(self):
        n_modes = 4000
        mass, frequency, thermal_energy, hbar = 1.3, 2.0, 1.5, 0.7
        bath = BathSpec(
            masses=np.full(n_modes, mass),
            frequencies=np.full(n_modes, frequency),
            couplings=np.full(n_modes, 0.01),
            thermal_energy=thermal_energy,
            hbar=hbar,
        )
        occupancy = 1.0 / np.expm1(hbar * frequency / thermal_energy)
        width_sq = hbar / (mass * frequency)
        sample = sample_bath(bath, seed=11)
        for draws, variance in (
            (sample.positions, width_sq * occupancy),
            (sample.momenta, hbar**2 / width_sq * occupancy),
        ):
            # standard error of a Gaussian sample variance
            standard_error = variance * np.sqrt(2.0 / (n_modes - 1))
            assert abs(np.mean(draws**2) - variance) < 5.0 * standard_error
        again = sample_bath(bath, seed=11)
        assert np.array_equal(again.positions, sample.positions)
        assert np.array_equal(again.momenta, sample.momenta)
        assert not np.array_equal(sample_bath(bath, seed=12).positions, sample.positions)


class TestConditionalVelocity:
    def test_degenerate_kernel_falls_back_to_initial_velocity(self):
        system = OscillatorSystemSpec()
        # couplings inside the weak-coupling bound, so no regime warning
        params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)
        bath = discretize_spectral_density(params, system, 64)
        props = weak_coupling_matrices(bath, system, 0.0, small_angle=True)
        sample = sample_bath(bath, seed=3)
        kernel = conditional_kernel(props, bath, sample, 0.0)
        assert kernel.degenerate and kernel.minv is None
        state = build_energy_band_state(50, 8)
        orbit = classical_orbit(state, system)
        wkb = wkb_amplitudes(state, orbit, system)
        psi = band_wavefunction(state, system)
        for x in (-3.1, 0.4, 5.2):
            v = conditional_velocity(state, orbit, wkb, kernel, x, sample.positions)
            assert v == initial_velocity(psi, x, system)
