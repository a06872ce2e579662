"""Tests for the explicit-bath route: spectral integrals, Volterra solve, blocks."""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from bohmdec.bath_dynamics import (
    BathSpec,
    SpectralDensity,
    classicality_report,
    cl_m_tilde_asymptote,
    cl_sigma3_squared_asymptote,
    conditional_kernel,
    conditional_smearing_time,
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
from bohmdec.bohm_velocity import SemiclassicalDecomposition, initial_velocity
from bohmdec.errors import (
    CouplingStrengthWarning,
    NumericalFailureError,
    UndefinedVelocityError,
)
from bohmdec.phase_space import (
    OscillatorSystemSpec,
    WkbAmplitudes,
    band_wavefunction,
    build_energy_band_state,
    classical_orbit,
    wkb_amplitudes,
)
from bohmdec.quadratic_master import CaldeiraLeggettParams

from conftest import trapz

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

    def test_line_kernel_tables_stay_small(self):
        # 512 lines x 6401 times: one-shot tables of every line at every
        # time would hold about 225 MB
        bath = discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), 512)
        spectral = SpectralDensity.from_bath(bath)
        times = np.linspace(0.0, 20.0, 6401)
        tracemalloc.start()
        try:
            spectral.kernel_tables(1.0, 1.0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, peak / 2**20

    def test_line_kernel_tables_match_one_shot_sum(self):
        bath = discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), 512)
        spectral = SpectralDensity.from_bath(bath)
        freqs, weights = spectral.lines()
        bare, mass = 1.3, 1.5
        # the lines are summed over blocks of 2**18 // 512 times: three full
        # blocks and a partial one
        times = np.linspace(0.0, 3.0, 3 * (2**18 // freqs.size) + 77)
        tables = spectral.kernel_tables(bare, mass, times)
        kernels = pair_kernel(freqs[:, None], bare, times[None, :])
        for table, kernel in zip(tables, kernels):
            expected = 2.0 / (mass * bare) * (weights @ kernel)
            assert np.abs(table - expected).max() <= 1e-15 * np.abs(expected).max()

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


    def test_exact_blocks_match_generator_exponential(self):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        n, m = bath.n_modes, system.mass
        modes = 2 + 2 * np.arange(n)
        # dz/dt = L z for z = (x, p, q_1, p_1, ...) under
        # H = p^2/2m + m bare^2 x^2/2 + sum_r (p_r^2/2m_r + m_r w_r^2 q_r^2/2 + kappa_r x q_r)
        gen = np.zeros((2 * n + 2, 2 * n + 2))
        gen[0, 1] = 1.0 / m
        gen[1, 0] = -m * bare**2
        gen[1, modes] = -bath.couplings
        gen[modes, modes + 1] = 1.0 / bath.masses
        gen[modes + 1, modes] = -bath.masses * bath.frequencies**2
        gen[modes + 1, 0] = -bath.couplings
        t = 2.0
        errors = []
        for refine in (1, 2, 4, 8):
            step = on_grid_step(t, max(bare, bath.frequencies.max()), refine)
            table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, t, step, mass=m)
            worst = 0.0
            for sign in (1.0, -1.0):
                props = exact_bath_matrices(
                    bath, coupled, table, sign * t, include_d_corrections=True
                )
                expected = expm(sign * t * gen)
                gaps = [np.abs(props.a - expected[:2, :2]).max()]
                for r, i in enumerate(modes):
                    gaps.append(np.abs(props.b[r] - expected[:2, i : i + 2]).max())
                    gaps.append(np.abs(props.c[r] - expected[i : i + 2, :2]).max())
                    for s, j in enumerate(modes):
                        d_rs = props.d_corrections[r, s] + (r == s) * props.d_free[r]
                        gaps.append(np.abs(d_rs - expected[i : i + 2, j : j + 2]).max())
                worst = max(worst, max(gaps) / np.abs(expected).max())
            errors.append(worst)
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all(ratios >= 12.0), (errors, ratios)
        assert errors[-1] <= 5e-8, errors

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_block_inverse_matches_explicit_construction(self, t):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 32)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        step = on_grid_step(t, max(bare, bath.frequencies.max()))
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, t, step, mass=system.mass)
        forward = exact_bath_matrices(bath, coupled, table, t, include_d_corrections=True)
        backward = exact_bath_matrices(bath, coupled, table, -t, include_d_corrections=True)
        n = bath.n_modes

        def dense_d(props):
            dense = np.transpose(props.d_corrections, (0, 2, 1, 3)).reshape(2 * n, 2 * n)
            for r in range(n):
                dense[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] += props.d_free[r]
            return dense

        # Dinv(t) = D(-t) - C(-t) A(-t)^-1 B(-t), built from the public blocks
        b_row = np.transpose(backward.b, (1, 0, 2)).reshape(2, 2 * n)
        c_col = backward.c.reshape(2 * n, 2)
        d_inv = dense_d(backward) - c_col @ np.linalg.inv(backward.a) @ b_row
        expected = np.linalg.norm(dense_d(forward) @ d_inv - np.eye(2 * n), 2)
        residual = reversibility_residuals(forward, backward)["block_inverse"]
        assert residual == pytest.approx(expected, rel=1e-9, abs=0.0)


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

    @pytest.mark.parametrize("t", [2.0, 4.0])
    def test_matches_momentum_quadrature_of_the_decomposition(self, t):
        run = _canonical_conditioning(t)
        direction = np.random.default_rng(23).standard_normal(run.kernel.bath.n_modes)
        for x in np.linspace(-0.8, 0.8, 17) * run.orbit.amplitude:
            p_cl = float(run.orbit.classical_momentum(x))
            for branch in (p_cl, -p_cl):
                for jitter in (0.0, 0.3, 1.0):
                    bath_slice = (
                        run.kernel.conditional_peaks(x, branch)
                        + jitter * run.kernel.bath.coherent_widths * direction
                    )
                    v = conditional_velocity(
                        run.state, run.orbit, run.wkb, run.kernel, x, bath_slice
                    )
                    expected = _quadrature_velocity(run.kernel, run.wkb, x, bath_slice)
                    assert abs(v - expected) <= 1e-9 * p_cl / run.system.mass, (
                        x, branch, jitter
                    )

    @pytest.mark.parametrize("absent", [(0,), (1,), (0, 1)], ids=["plus", "minus", "both"])
    def test_absent_branches(self, absent):
        run = _canonical_conditioning(2.0)

        class Masked(WkbAmplitudes):
            def amplitudes(self, x):
                return tuple(
                    np.zeros_like(g) if k in absent else g
                    for k, g in enumerate(super().amplitudes(x))
                )

        wkb = Masked(run.state, run.orbit, run.system)
        x = 0.3 * run.orbit.amplitude
        p_cl = float(run.orbit.classical_momentum(x))
        bath_slice = run.kernel.conditional_peaks(x, p_cl)
        if len(absent) == 2:
            with pytest.raises(UndefinedVelocityError, match="no branch density"):
                conditional_velocity(run.state, run.orbit, wkb, run.kernel, x, bath_slice)
            return
        v = conditional_velocity(run.state, run.orbit, wkb, run.kernel, x, bath_slice)
        expected = _quadrature_velocity(run.kernel, wkb, x, bath_slice)
        assert abs(v - expected) <= 1e-9 * p_cl / run.system.mass


def _canonical_conditioning(t):
    """The n=50 width-8 band and a 64-mode canonical-parameter bath conditioned at ``t``."""
    system = OscillatorSystemSpec()
    params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
    bath = discretize_spectral_density(params, system, 64)
    continuum = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
    with warnings.catch_warnings():
        # the canonical-parameter bath sits above the weak-coupling bound
        warnings.simplefilter("ignore", CouplingStrengthWarning)
        props = weak_coupling_matrices(bath, system, t, small_angle=True)
    kernel = conditional_kernel(props, bath, sample_bath(bath, seed=17), t, spectral=continuum)
    state = build_energy_band_state(50, 8)
    orbit = classical_orbit(state, system)
    return SimpleNamespace(
        system=system, kernel=kernel, state=state, orbit=orbit,
        wkb=wkb_amplitudes(state, orbit, system),
    )


def _quadrature_velocity(kernel, wkb, x, bath_slice):
    """Oracle for the conditioned velocity at ``x``.

    The conditioned distribution (classical part plus the interference
    envelope at unit phase) times the Gaussian slice weight, integrated by
    the trapezoid rule over a momentum grid that spans every term centre by
    12 widths of the widest term and resolves the narrowest.
    """
    orbit = wkb.orbit
    decomp = SemiclassicalDecomposition(kernel.minv, orbit, wkb)
    p_cl = float(orbit.classical_momentum(x))
    widths = [float(f(x)[0]) for f in (decomp.sigma_plus, decomp.sigma_minus, decomp.sigma_2)]
    centres = [p_cl, -p_cl, -float(decomp.beta(x)[0]) * p_cl]
    reach = 12.0 / min(widths)
    steepest = np.sqrt(max(widths) ** 2 + kernel.sigma3_sq)
    p = np.arange(min(centres) - reach, max(centres) + reach, 0.25 / steepest)
    density = (decomp.classical_part(x, p) + decomp.oscillatory_envelope(x, p))[0]
    # slice weight exp(-sum_r (m w / hbar)_r (slice_r - peak_r(x, p))^2), with
    # the peaks affine in p: peak_r(x, p) = peak_r(x, 0) - k_r p
    bath = kernel.bath
    scale = bath.masses * bath.frequencies / bath.hbar
    offset = bath_slice - kernel.conditional_peaks(x, 0.0)
    slope = kernel.response[:, 0, 1]
    exponent = scale @ offset**2 + 2.0 * (scale * offset) @ slope * p + scale @ slope**2 * p**2
    weighted = density * np.exp(exponent.min() - exponent)
    return trapz(p * weighted, p) / trapz(weighted, p) / orbit.system.mass


class TestClassicality:
    @pytest.mark.parametrize("level", [20, 50, 400])
    @pytest.mark.parametrize("thermal_energy", [1.0, 1e3])
    def test_smearing_time_closes_its_margin(self, level, thermal_energy):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(
            damping_rate=1e-4, thermal_energy=thermal_energy, cutoff=1e3
        )
        orbit = classical_orbit(build_energy_band_state(level, 0), system)
        onset = conditional_smearing_time(system, orbit, params)
        report = classicality_report(system, orbit, params, onset)
        assert report.conditional_smearing_time == onset
        margin = report.margins["past_conditional_smearing_time"]
        assert margin == pytest.approx(1.0, rel=1e-10, abs=0.0)
        # kT = 1 localizes after the onset, kT = 1e3 before it
        assert report.ordering_ok == (report.timescales.t_c < onset)
        assert report.ordering_ok == (thermal_energy > 1.0)

    @pytest.mark.parametrize(
        "damping_rate, cutoff, message",
        [(1.0, 5.0, "window is empty"), (5.0, 1e3, "no conditional smearing-time crossing")],
    )
    def test_smearing_time_failures_raise(self, damping_rate, cutoff, message):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(
            damping_rate=damping_rate, thermal_energy=1.0, cutoff=cutoff
        )
        orbit = classical_orbit(build_energy_band_state(50, 0), system)
        with pytest.raises(NumericalFailureError, match=message):
            conditional_smearing_time(system, orbit, params)

    def test_smearing_time_rejects_zero_damping(self):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=1.0, cutoff=1e3)
        orbit = classical_orbit(build_energy_band_state(50, 0), system)
        with pytest.raises(ValueError, match="damping_rate"):
            conditional_smearing_time(system, orbit, params)
