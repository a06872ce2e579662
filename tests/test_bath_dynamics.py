"""Tests for the explicit-bath route: spectral integrals, Volterra solve, blocks."""

from __future__ import annotations

import dataclasses
import functools
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, eigsh

from bohmdec import _parallel
from bohmdec.bath_dynamics import (
    BathPropagators,
    BathSpec,
    CoherentBathSample,
    ConditionalKernel,
    GKernelTable,
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
    reduced_M_from_bath,
    reversibility_residuals,
    sample_bath,
    sigma3_squared,
    solve_g_kernel,
    weak_coupling_matrices,
)
from bohmdec.bath_dynamics import _trig, matrices
from bohmdec.bath_dynamics._trig import cin, pair_kernel, phase_sums, si_cin
from bohmdec.bath_dynamics.classicality import _lambert_w
from bohmdec.bath_dynamics.matrices import _flow_rows, _spectral_norm
from bohmdec.bath_dynamics.volterra import NormalModeBasis, _normal_modes
from bohmdec.bohm_velocity import (
    MInverseParams,
    SemiclassicalDecomposition,
    initial_velocity,
    validity_window,
)
from bohmdec.errors import (
    CouplingStrengthWarning,
    DomainValidityError,
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

from conftest import run_fresh, traced_peak, trapz

ORACLE_DIGITS = 30
# g, g_dot and g_ddot from the normal modes against expm of the generator, as
# a share of each table's peak: 2.8e-14 measured worst (the near-tie bath)
TOL_LINE = 1e-13


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


def line_kernel_tables(bath: BathSpec, bare: float, mass: float, times) -> np.ndarray:
    """Memory kernel of a line spectrum and its two derivatives, line by line.

    Each line enters through ``K0, K1, K2`` of :func:`pair_kernel`, weighted
    by its quadrature mass. Returns shape ``(3, len(times))``.
    """
    kernels = pair_kernel(bath.frequencies[:, None], bare, np.asarray(times)[None, :])
    return 2.0 / (mass * bare) * np.array([bath.spectral_weights @ k for k in kernels])


def normal_mode_oracle(bath: BathSpec, bare: float, mass: float, times) -> np.ndarray:
    """``g``, ``g_dot`` and ``g_ddot`` from ``expm`` of the explicit generator.

    The central blocks of ``T = expm(L t)`` are ``T_xx = g_dot / bare``,
    ``T_xp = g / (mass bare)`` and ``T_px = mass g_ddot / bare``. Returns
    shape ``(3, len(times))``.
    """
    gen = bath_generator(bath, bare, mass)
    out = np.empty((3, len(times)))
    for col, tau in enumerate(times):
        transfer = expm(tau * gen)
        out[:, col] = bare * np.array(
            [mass * transfer[0, 1], transfer[0, 0], transfer[1, 0] / mass]
        )
    return out


def oracle_params() -> CaldeiraLeggettParams:
    return CaldeiraLeggettParams(damping_rate=1e-2, thermal_energy=10.0, cutoff=20.0)


def bath_generator(bath: BathSpec, bare: float, mass: float) -> np.ndarray:
    """Explicit generator ``L`` of the central oscillator coupled to ``bath``.

    ``dz/dt = L z`` for ``z = (x, p, q_1, p_1, ...)`` under
    ``H = p^2/2m + m bare^2 x^2/2 + sum_r (p_r^2/2m_r + m_r w_r^2 q_r^2/2 + kappa_r x q_r)``.
    """
    n = bath.n_modes
    modes = 2 + 2 * np.arange(n)
    gen = np.zeros((2 * n + 2, 2 * n + 2))
    gen[0, 1] = 1.0 / mass
    gen[1, 0] = -mass * bare**2
    gen[1, modes] = -bath.couplings
    gen[modes, modes + 1] = 1.0 / bath.masses
    gen[modes + 1, modes] = -bath.masses * bath.frequencies**2
    gen[modes + 1, 0] = -bath.couplings
    return gen


def on_grid_step(t: float, fastest: float, refine: int = 1) -> float:
    """Largest allowed solver step that lands ``t`` on a node, divided by ``refine``."""
    return t / (refine * int(np.ceil(t * 20.0 * fastest / (2.0 * np.pi))))


RESIDUAL_KEYS = [
    "round_trip_center",
    "round_trip_modes",
    "round_trip_center_modes",
    "round_trip_modes_center",
]


@functools.lru_cache(maxsize=None)
def reversal_pair(t: float, detune: float = 0.0) -> tuple:
    """Exact blocks with the dense transfer matrix at ``t`` and ``-t`` (32 oracle modes).

    With ``detune`` the backward blocks come from the same bath with every
    coupling scaled by ``1 + detune``, so the round trip misses the identity
    by ``O(detune)`` rather than by round-off.
    """
    system = OscillatorSystemSpec()
    pair = []
    for sign, scale in ((1.0, 1.0), (-1.0, 1.0 + detune)):
        base = discretize_spectral_density(oracle_params(), system, 32)
        bath = dataclasses.replace(base, couplings=scale * base.couplings)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        step = on_grid_step(0.5, max(bare, bath.frequencies.max()))
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 0.5, step, mass=system.mass)
        pair.append(
            exact_bath_matrices(bath, coupled, table, sign * t, include_d_corrections=True)
        )
    return tuple(pair)


@functools.lru_cache(maxsize=None)
def wide_bath_table() -> tuple:
    """512 oracle modes, the coupled system and a response table reaching t = 0.5."""
    t = 0.5
    system = OscillatorSystemSpec()
    bath = discretize_spectral_density(oracle_params(), system, 512)
    bare = counterterm_bare_frequency(bath, system)
    coupled = dataclasses.replace(system, bare_frequency=bare)
    step = on_grid_step(t, max(bare, bath.frequencies.max()))
    table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, t, step, mass=system.mass)
    return bath, coupled, table


@functools.lru_cache(maxsize=None)
def route_bath_table() -> tuple:
    """The benchmark's explicit bath (512 modes, gamma = 1e-2, kT = 10, cutoff
    100), the coupled system and a response table reaching its last block time."""
    system = OscillatorSystemSpec()
    params = CaldeiraLeggettParams(damping_rate=1e-2, thermal_energy=10.0, cutoff=100.0)
    bath = discretize_spectral_density(params, system, 512)
    bare = counterterm_bare_frequency(bath, system)
    coupled = dataclasses.replace(system, bare_frequency=bare)
    table = solve_g_kernel(
        SpectralDensity.from_bath(bath), bare, 20.0, 1.0 / 320.0, mass=system.mass
    )
    return bath, coupled, table


class _CountingMatrix(np.ndarray):
    """A matrix that counts the products taken with it or its transpose."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ other


def lanczos_steps(mat: np.ndarray) -> int:
    """Lanczos steps :func:`_spectral_norm` takes on ``mat``: two products each."""
    _CountingMatrix.products = 0
    _spectral_norm(mat.view(_CountingMatrix))
    return _CountingMatrix.products // 2


def dense_blocks(props) -> tuple:
    """``A``, ``B``, ``C`` and ``D`` of the dense transfer matrix."""
    transfer = props.transfer
    return transfer[:2, :2], transfer[:2, 2:], transfer[2:, :2], transfer[2:, 2:]


class TestClosedForms:
    @pytest.mark.parametrize(
        "x", [1e-3, 0.05, 0.49, 0.51, 2.0, 4.0 - 1e-9, 4.0, 4.0 + 1e-9, 37.0, 500.0, 2e4]
    )
    def test_cin_matches_mpmath(self, x):
        # Si and Cin on the float path and on an array, on both sides of the
        # split at 4 between the power series and the continued fraction:
        # 2.5e-16 relative measured worst (Cin just below the split)
        with mp.workdps(40):
            si, cin_ = mp.si(x), mp.euler + mp.log(x) - mp.ci(x)
        for got_si, got_cin in (si_cin(x), si_cin(np.array(x))):
            assert float(got_si) == pytest.approx(float(si), rel=4e-16, abs=0.0)
            assert float(got_cin) == pytest.approx(float(cin_), rel=4e-16, abs=0.0)
        assert si_cin(-x) == (-si_cin(x)[0], si_cin(x)[1])
        assert float(cin(-x)) == float(cin(x))

    def test_e1_fraction_stops_within_eps(self, monkeypatch):
        # the continued fraction stops at the first ratio within eps of 1: 47
        # steps at the split, on the array and the float path alike (one
        # absolute value each); a tolerance 100 times looser stops at 37, one
        # 100 times tighter at 53 or 54
        steps = []

        def counted(value):
            steps.append(value)
            return abs(value)

        monkeypatch.setattr(_trig.np, "abs", counted)
        monkeypatch.setattr(_trig, "abs", counted, raising=False)
        for fraction, x in ((_trig._e1_fraction, np.array([4.0])), (_trig._e1_fraction_float, 4.0)):
            steps.clear()
            fraction(x)
            assert len(steps) == 47, fraction

    @pytest.mark.parametrize("z", [1e-3, 0.3, np.e, 10.0, 1e3, 1e10, 1e100, 1e300])
    def test_lambert_w_matches_mpmath(self, z):
        with mp.workdps(40):
            expected = float(mp.lambertw(z))
        assert _lambert_w(z) == pytest.approx(expected, rel=4e-16, abs=0.0)

    @pytest.mark.parametrize(
        "bare, cutoff", [(1.0, 50.0), (3.0, 2.0), (2.0, 2.0)], ids=["above", "below", "equal"]
    )
    def test_kernel_tables_match_mpmath(self, bare, cutoff):
        gamma, mass = 1e-2, 1.5
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(mass=1.0), gamma, cutoff)
        times = np.arange(501) * 0.005
        tables = spectral.kernel_tables(bare, mass, 0.005, 501)
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
        ohmic = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        reference = ohmic.kernel_tables(1.0, 1.0, 0.005, 401)
        errors = []
        for n_modes in (64, 128, 256, 512):
            bath = discretize_spectral_density(params, system, n_modes)
            tables = line_kernel_tables(bath, 1.0, 1.0, np.arange(401) * 0.005)
            errors.append(
                max(np.abs(a - r).max() / np.abs(r).max() for a, r in zip(tables, reference))
            )
        ratios = np.array(errors[:-1]) / np.array(errors[1:])
        assert np.all((ratios >= 3.5) & (ratios <= 4.5)), (errors, ratios)
        # a line spectrum takes its response from the normal modes instead
        with pytest.raises(ValueError, match="only the ohmic density"):
            SpectralDensity.from_bath(bath).kernel_tables(1.0, 1.0, 0.005, 401)

    def test_line_table_stays_small(self):
        # 513 normal modes x 6401 times: a one-shot table of their complex
        # phases would hold 53 MB
        bath = discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), 512)
        spectral = SpectralDensity.from_bath(bath)
        _, peak = traced_peak(lambda: solve_g_kernel(spectral, 1.0, 20.0, 1.0 / 320.0, mass=1.0))
        assert peak <= 32 * 2**20, peak / 2**20

    def test_normal_modes_freeze_eigh_matrix_in_place(self):
        # the Hessian and eigh's eigenvector matrix are the two (N + 1)^2
        # arrays; a stored copy of the eigenvectors would be a third
        bath = discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), 512)
        basis, peak = traced_peak(_normal_modes, bath, 1.0, 1.0)
        assert not basis.vectors.flags.writeable
        assert peak <= 2.5 * basis.vectors.nbytes, peak / basis.vectors.nbytes

    @pytest.mark.parametrize("bare", [1.3, None], ids=["bare", "counterterm"])
    def test_line_table_matches_generator_exponential(self, bare):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 64)
        if bare is None:
            bare = counterterm_bare_frequency(bath, system)
        step, mass = 3.0 / 1612.0, 1.5
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 3.0, step, mass=mass)
        nodes = np.array([0, 1, 2, 3, 77, 230, 537, 806, 1290, 1612])
        expected = normal_mode_oracle(bath, bare, mass, nodes * step)
        got = np.array([table.values, table.first_derivative, table.second_derivative])
        for row, exact in zip(got, expected):
            assert np.abs(row[nodes] - exact).max() <= TOL_LINE * np.abs(row).max()

    def test_line_table_holds_near_the_bare_frequency(self):
        # lines at the bare frequency, within 2e-8 of it on both sides, at
        # 1e-4 and at 5%: the near-degenerate normal modes need no branch
        bare, mass = 1.3, 1.5
        bath = BathSpec(
            masses=np.ones(5),
            frequencies=bare * np.array([1.0, 1.0 + 1e-9, 1.0 - 2e-8, 1.0 + 1e-4, 1.05]),
            couplings=np.array([0.1, 0.2, 0.15, 0.25, 0.3]),
            thermal_energy=1.0,
        )
        step = 1.0 / 64.0
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 25.0, step, mass=mass)
        nodes = np.array([0, 1, 2, 3, 50, 333, 800, 1201, 1600])
        expected = normal_mode_oracle(bath, bare, mass, nodes * step)
        got = np.array([table.values, table.first_derivative, table.second_derivative])
        for row, exact in zip(got, expected):
            assert np.abs(row[nodes] - exact).max() <= TOL_LINE * np.abs(row).max()

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

    @pytest.mark.parametrize("t", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("asymptote", [cl_m_tilde_asymptote, cl_sigma3_squared_asymptote])
    def test_log_asymptotes_reject_bad_time(self, asymptote, t):
        # without the guard the log returns nan or inf entries, and t = -1
        # only warns
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        with pytest.raises(ValueError, match=r"^t (= \S+ is not finite|must be positive)"):
            asymptote(params, OscillatorSystemSpec(), t)


class TestSolveGKernel:
    def test_reversibility_residuals_reach_round_off(self):
        # the benchmark's explicit bath at its block times
        bath, coupled, table = route_bath_table()
        for t in (5.0, 10.0, 20.0):
            forward = exact_bath_matrices(bath, coupled, table, t, include_d_corrections=True)
            backward = exact_bath_matrices(bath, coupled, table, -t, include_d_corrections=True)
            residual = max(reversibility_residuals(forward, backward).values())
            assert residual < 1e-9, (t, residual)

    def test_ohmic_march_converges_to_normal_modes(self):
        # 1024 normal modes stand in for the continuum: their g differs from
        # the ohmic one far less than the march's step error, so halving the
        # step cuts the gap by about 16 for g and g_dot and 8 for g_ddot
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-2, thermal_energy=10.0, cutoff=100.0)
        bath = discretize_spectral_density(params, system, 1024)
        bare = counterterm_bare_frequency(bath, system)
        ohmic = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        t_max = 5.0
        gaps = []
        for step in (0.0025, 0.00125):
            march = solve_g_kernel(ohmic, bare, t_max, step)
            modes = solve_g_kernel(
                SpectralDensity.from_bath(bath), bare, t_max, step, mass=system.mass
            )
            gaps.append(
                [
                    np.abs(getattr(march, name) - getattr(modes, name)).max()
                    / np.abs(getattr(modes, name)).max()
                    for name in ("values", "first_derivative", "second_derivative")
                ]
            )
        ratios = np.array(gaps[0]) / np.array(gaps[1])
        assert ratios[0] >= 12.0 and ratios[1] >= 12.0, (gaps, ratios)
        assert 6.0 <= ratios[2] <= 10.0, (gaps, ratios)

    def test_line_spectrum_rejects_indefinite_hessian(self):
        # the counterterm of this bath is 1.508: from a bare frequency of 1
        # the couplings pull the central frequency squared below zero
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-2, thermal_energy=10.0, cutoff=100.0)
        bath = discretize_spectral_density(params, system, 1024)
        assert counterterm_bare_frequency(bath, system) == pytest.approx(1.508, abs=1e-3)
        with pytest.raises(ValueError, match="smallest eigenvalue is -"):
            solve_g_kernel(SpectralDensity.from_bath(bath), 1.0, 1.0, 1e-3, mass=system.mass)

    def test_line_table_is_exact_at_a_coarse_step(self):
        # the closed-form sums need no points-per-period rule: a step of
        # 0.05 is three times the 0.0158 that 20 points per period of the
        # fastest line (19.8) would allow
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 64)
        bare, mass, step = 1.3, 1.5, 0.05
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 3.0, step, mass=mass)
        nodes = np.array([0, 1, 2, 3, 17, 31, 45, 60])
        expected = normal_mode_oracle(bath, bare, mass, nodes * step)
        got = np.array([table.values, table.first_derivative, table.second_derivative])
        for row, exact in zip(got, expected):
            assert np.abs(row[nodes] - exact).max() <= TOL_LINE * np.abs(row).max()

    def test_rejects_too_coarse_step(self):
        # 20 points per period of a cutoff of 100 need a step below 3.1e-3
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(), 1e-2, 100.0)
        with pytest.raises(ValueError, match="too coarse"):
            solve_g_kernel(spectral, 1.0, 1.0, 0.01)

    def test_points_per_period_is_pinned(self):
        # a step of 0.004 gives a cutoff of 100 only 15.7 points per period,
        # which 8 points per period would let through; 0.003 gives 20.9
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(), 1e-2, 100.0)
        with pytest.raises(ValueError, match="too coarse"):
            solve_g_kernel(spectral, 1.0, 0.3, 0.004)
        assert solve_g_kernel(spectral, 1.0, 0.3, 0.003).times.size == 101

    @pytest.mark.parametrize("excess, coarse", [(1e-13, False), (1e-11, True)])
    def test_coarsest_step_is_held_to_1e_12(self, excess, coarse):
        # 20 points per period of the cutoff, to 1e-12 relative
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(), 1e-2, 100.0)
        step = 2.0 * np.pi / (20 * 100.0) * (1.0 + excess)
        if coarse:
            with pytest.raises(ValueError, match="too coarse"):
                solve_g_kernel(spectral, 1.0, 0.1, step)
        else:
            assert solve_g_kernel(spectral, 1.0, 0.1, step).times.size == 33

    @pytest.mark.parametrize("excess, steps", [(1e-10, 100), (1e-8, 101)])
    def test_span_within_1e_9_steps_of_a_node_ends_there(self, excess, steps):
        # t_max / step carries the rounding of both; within 1e-9 of a whole
        # step count the table ends at that node, past it a step covers t_max
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(), 1e-2, 100.0)
        table = solve_g_kernel(spectral, 1.0, (100.0 + excess) * 0.003, 0.003)
        assert table.times.size == steps + 1

    def test_bath_without_modes_gives_the_free_oscillator(self):
        # an ohmic density with no damping couples nothing to the center
        bare = 1.7
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(mass=1.2), 0.0, 20.0)
        table = solve_g_kernel(spectral, bare, 3.0, 0.01, mass=1.2)
        phase = bare * table.times
        assert np.array_equal(table.values, np.sin(phase))
        assert np.array_equal(table.first_derivative, bare * np.cos(phase))
        assert np.array_equal(table.second_derivative, -bare**2 * np.sin(phase))

    @pytest.mark.parametrize("count", [5, 6, 7, 8, 9])
    def test_short_tables_match_product_integration(self, count):
        # below seven samples the integrals take the trapezoid, from seven
        # on Gregory's end corrections; the loop below spells out both
        bare, mass, step = 1.3, 1.2, 0.05
        spectral = SpectralDensity.from_ohmic(OscillatorSystemSpec(mass=1.0), 0.05, 3.1)
        table = solve_g_kernel(spectral, bare, (count - 1) * step, step, mass=mass)
        assert table.times.size == count
        kernels = np.array(spectral.kernel_tables(bare, mass, step, count))

        expected = np.empty((3, count))
        for j in range(count):
            phase = bare * j * step
            expected[:, j] = [np.sin(phase), bare * np.cos(phase), -bare**2 * np.sin(phase)]
            if j == 0:
                continue
            samples = j + 1
            if samples >= 7:
                rule = [3 / 8, 7 / 6, 23 / 24] + [1.0] * (samples - 6) + [23 / 24, 7 / 6, 3 / 8]
            else:
                rule = [0.5] + [1.0] * (samples - 2) + [0.5]
            for k in range(j):
                expected[:, j] += step * rule[k] * kernels[:, j - k] * expected[0, k]
        got = np.array([table.values, table.first_derivative, table.second_derivative])
        for row, exact in zip(got, expected):
            assert np.abs(row - exact).max() <= 1e-14 * np.abs(exact).max()

    def test_exact_blocks_need_the_tables_normal_modes(self):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        ohmic = SpectralDensity.from_ohmic(system, 1e-2, 20.0)
        with pytest.raises(ValueError, match="ohmic table has no normal modes"):
            exact_bath_matrices(bath, coupled, solve_g_kernel(ohmic, bare, 1.0, 0.01), 0.5)
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 1.0, 0.01, mass=1.0)
        for name in ("masses", "frequencies", "couplings"):
            values = getattr(bath, name).copy()
            values[3] *= 1.0 + 1e-9
            other = dataclasses.replace(bath, **{name: values})
            with pytest.raises(ValueError, match="bath differs"):
                exact_bath_matrices(other, coupled, table, 0.5)

    @pytest.mark.parametrize("shape", [(40, 40), (12, 70), (70, 12)])
    def test_spectral_norm_matches_svd(self, shape):
        mat = np.random.default_rng(5).standard_normal(shape)
        assert _spectral_norm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-12)

    @pytest.mark.parametrize("t", [5.0, 10.0, 20.0])
    def test_spectral_norm_reads_route_residuals_as_closely_as_arpack(self, t, monkeypatch):
        # the benchmark's round trip at its block times: a cluster of round-off
        # singular values (sigma_2 / sigma_1 from 0.9994), which ARPACK's eigsh
        # (tol=0, the same start vector) read 1.0e-4, 6.1e-8 and 9.3e-12 short
        # of the SVD value; 21 Lanczos steps read it no further off
        forward, backward = (
            exact_bath_matrices(*route_bath_table(), sign * t, include_d_corrections=True)
            for sign in (1.0, -1.0)
        )
        blocks = []
        monkeypatch.setattr(matrices, "_spectral_norm", lambda m: blocks.append(m) or 0.0)
        reversibility_residuals(forward, backward)
        modes = blocks[1]
        exact = np.linalg.norm(modes, 2)
        size = modes.shape[1]
        gram = LinearOperator((size, size), matvec=lambda v: modes.T @ (modes @ v), dtype=float)
        v0 = np.random.default_rng(0).standard_normal(size)
        (top,) = eigsh(gram, k=1, which="LA", tol=0.0, v0=v0, return_eigenvectors=False)
        assert abs(_spectral_norm(modes) - exact) <= abs(np.sqrt(top) - exact)
        assert lanczos_steps(modes) == 21

    @pytest.mark.parametrize("case", ["identity", "rank-one", "zero"])
    def test_spectral_norm_stops_on_an_invariant_subspace(self, case):
        # a Krylov space that closes before step 21 ends the iteration: built
        # on from its round-off, the basis loses orthogonality (the identity
        # read 42); the identity closes at once, a rank-one Gram matrix at step 2
        rng = np.random.default_rng(3)
        mat, steps = {
            "identity": (np.eye(40), 1),
            "rank-one": (np.outer(rng.standard_normal(200), rng.standard_normal(200)), 2),
            "zero": (np.zeros((40, 40)), 1),
        }[case]
        assert lanczos_steps(mat) == steps
        assert _spectral_norm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-15, abs=0.0)

    def test_spectral_norm_stops_by_arpack_rule(self):
        # a top singular value 1/0.85 above the rest: the error estimate first
        # meets eps max(eps^(2/3), theta) at step 33, and one step moves it by
        # about 2.5x, so a tolerance 100 times looser or tighter stops 3 or 4
        # steps early or late
        rng = np.random.default_rng(11)
        u, v = (np.linalg.qr(rng.standard_normal((120, 120)))[0] for _ in range(2))
        mat = (u * np.concatenate([[1.0], np.linspace(0.85, 0.0, 119)])) @ v.T
        assert lanczos_steps(mat) == 33
        assert _spectral_norm(mat) == pytest.approx(1.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("shape", [(2, 2), (2, 70), (70, 2), (3, 3), (40, 40), (12, 70)])
    def test_spectral_norm_is_exact_for_a_separated_top(self, shape):
        # U diag(s) V^T with s_1 = 3 s_2: the promised 1e-13 relative, on the
        # Gram side (a side of 2) and on the Lanczos side
        rng = np.random.default_rng(11)
        rank = min(shape)
        u = np.linalg.qr(rng.standard_normal((shape[0], rank)))[0]
        v = np.linalg.qr(rng.standard_normal((shape[1], rank)))[0]
        s = np.concatenate([[3.0], np.linspace(1.0, 0.1, rank - 1)])
        mat = (u * s) @ v.T
        assert _spectral_norm(mat) == pytest.approx(np.linalg.norm(mat, 2), rel=1e-13, abs=0.0)


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
        # t lies on no node of the table and beyond its span
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        m = system.mass
        gen = bath_generator(bath, bare, m)
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 1.0, 0.01, mass=m)
        t = 2.0 + np.pi / 1000.0
        size = 2 * bath.n_modes + 2
        symplectic = np.zeros((size, size))
        symplectic[0::2, 1::2] = np.eye(size // 2)
        symplectic[1::2, 0::2] = -np.eye(size // 2)
        for sign in (1.0, -1.0):
            props = exact_bath_matrices(bath, coupled, table, sign * t, include_d_corrections=True)
            expected = expm(sign * t * gen)
            transfer = props.transfer
            assert np.abs(transfer - expected).max() <= 1e-10 * np.abs(expected).max()
            assert np.abs(transfer @ symplectic @ transfer.T - symplectic).max() <= 1e-12
            # the central column of each block, without the dense matrix
            light = exact_bath_matrices(bath, coupled, table, sign * t)
            for block in ("a", "b", "c"):
                exact = getattr(props, block)
                gap = np.abs(getattr(light, block) - exact).max()
                assert gap <= 1e-14 * np.abs(transfer).max(), block

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_reduced_smearing_matches_generator_exponential(self, t):
        # M = 2 A^-1 C A^-T, with A and C the central blocks of T and of
        # T Sigma_0 T^T for T = expm(L t) and the thermal mode covariance
        # Sigma_0 = (hbar/2) coth(beta_r/2) diag(1/(m_r w_r), m_r w_r)
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        transfer = expm(t * bath_generator(bath, bare, system.mass))
        modes = 2 + 2 * np.arange(bath.n_modes)
        half_coth = 0.5 * bath.hbar / np.tanh(0.5 * bath.thermal_ratios)
        stiffness = bath.masses * bath.frequencies
        cov0 = np.zeros_like(transfer)
        cov0[modes, modes] = half_coth / stiffness
        cov0[modes + 1, modes + 1] = half_coth * stiffness
        a_inv = np.linalg.inv(transfer[:2, :2])
        expected = 2.0 * a_inv @ (transfer @ cov0 @ transfer.T)[:2, :2] @ a_inv.T
        step = on_grid_step(t, max(bare, bath.frequencies.max()))
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, t, step, mass=system.mass)
        m = reduced_M_from_bath(exact_bath_matrices(bath, coupled, table, t), bath)
        assert np.abs(m - expected).max() <= 1e-10 * np.abs(expected).max()

    def test_reduced_smearing_needs_the_blocks_bath(self):
        # only the temperature may differ from the bath the blocks were built
        # for; any other mode would smear with the wrong B_r without an error
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 1.0, 0.01, mass=1.0)
        props = exact_bath_matrices(bath, coupled, table, 1.0)
        for name in ("masses", "frequencies", "couplings"):
            values = getattr(bath, name).copy()
            values[3] *= 1.0 + 1e-9
            other = dataclasses.replace(bath, **{name: values})
            with pytest.raises(ValueError, match="bath differs"):
                reduced_M_from_bath(props, other)
        hot = dataclasses.replace(bath, thermal_energy=3.0 * bath.thermal_energy)
        m_hot = reduced_M_from_bath(props, hot)
        assert np.array_equal(m_hot, reduced_M_from_bath(dataclasses.replace(props, bath=hot), hot))
        assert m_hot[0, 0] > reduced_M_from_bath(props, bath)[0, 0]

    def test_reduced_smearing_rejects_a_singular_central_block(self):
        # det A = 1e-15 of |A|^2: without the guard the inverse returns
        # entries near 1.9e29
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 1.0, 0.01, mass=1.0)
        props = exact_bath_matrices(bath, coupled, table, 1.0)
        singular = dataclasses.replace(props, a=np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))
        with pytest.raises(NumericalFailureError, match="singular"):
            reduced_M_from_bath(singular, bath)

    @pytest.mark.parametrize("delta, singular", [(1e-11, False), (1e-12, True)])
    def test_reduced_smearing_holds_the_flow_condition_limit(self, delta, singular):
        # A = [[1, 1], [1, 1 + delta]] has condition number about 4 / delta;
        # the central block is held to integrate_propagator's limit of 1e12
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        table = solve_g_kernel(SpectralDensity.from_bath(bath), bare, 1.0, 0.01, mass=1.0)
        props = exact_bath_matrices(bath, coupled, table, 1.0)
        near = dataclasses.replace(props, a=np.array([[1.0, 1.0], [1.0, 1.0 + delta]]))
        if singular:
            with pytest.raises(NumericalFailureError, match="singular"):
                reduced_M_from_bath(near, bath)
        else:
            assert np.isfinite(reduced_M_from_bath(near, bath)).all()

    def test_center_to_mode_blocks_are_derived_views(self):
        # c is no field: it is read off the dense T, or reflected from b
        assert "c" not in {f.name for f in dataclasses.fields(BathPropagators)}
        forward, _ = reversal_pair(2.0)
        assert np.shares_memory(forward.c, forward.transfer)
        with warnings.catch_warnings():
            # the oracle bath sits above the weak-coupling regime bound
            warnings.simplefilter("ignore", CouplingStrengthWarning)
            weak = weak_coupling_matrices(forward.bath, forward.system, 2.0)
        light = dataclasses.replace(forward, transfer=None)
        for props in (light, weak):
            assert np.shares_memory(props.c, props.b)
            assert props.c.shape == props.b.shape
        # the reflection is the dense block to round-off of the flow rows
        gap = np.abs(light.c - forward.c).max()
        assert gap <= 1e-14 * np.abs(forward.transfer).max()

    def test_reduced_smearing_rejects_weak_coupling_blocks(self):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 16)
        with warnings.catch_warnings():
            # the oracle bath sits above the weak-coupling regime bound
            warnings.simplefilter("ignore", CouplingStrengthWarning)
            props = weak_coupling_matrices(bath, system, 1.0)
        with pytest.raises(ValueError, match="exact-mode"):
            reduced_M_from_bath(props, bath)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("key", RESIDUAL_KEYS)
    def test_residuals_match_explicit_construction(self, key, t):
        # the backward couplings are detuned by 1e-3, so every residual is
        # O(1e-3) and the comparison is not between round-off patterns
        forward, backward = reversal_pair(t, 1e-3)
        n = forward.n_modes
        round_trip = forward.transfer @ backward.transfer - np.eye(2 * n + 2)
        expected = {
            "round_trip_center": round_trip[:2, :2],
            "round_trip_modes": round_trip[2:, 2:],
            "round_trip_center_modes": round_trip[:2, 2:],
            "round_trip_modes_center": round_trip[2:, :2],
        }[key]
        residual = reversibility_residuals(forward, backward)[key]
        assert residual == pytest.approx(np.linalg.norm(expected, 2), rel=1e-13, abs=0.0)

    def test_residuals_hold_one_transfer_matrix(self):
        # T(t) T(-t) - 1 is formed by one product into one new array, reading
        # both inputs in place, and its norms take products with R alone:
        # 1.04 matrices measured. A Gram matrix, a copy of either input or a
        # product temporary beside R takes the peak to 2 or more matrices.
        forward, backward = (
            exact_bath_matrices(*wide_bath_table(), sign * 0.5, include_d_corrections=True)
            for sign in (1.0, -1.0)
        )
        _, peak = traced_peak(reversibility_residuals, forward, backward)
        matrix = 8 * (2 * forward.n_modes + 2) ** 2
        assert peak <= 1.1 * matrix, peak / matrix

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_dense_transfer_holds_two_flow_planes(self, sign):
        # the dense transfer matrix plus one work array and one flow block,
        # each a quarter of it: 1.5 outputs; each flow block held at once,
        # or a copy of T, adds a quarter or a whole output
        bath, coupled, table = wide_bath_table()
        props, peak = traced_peak(exact_bath_matrices, bath, coupled, table, sign * 0.5, True)
        output = props.transfer.nbytes
        assert output == 8 * (2 * bath.n_modes + 2) ** 2
        assert peak <= 2.0 * output, peak / output

    def test_transfer_layout(self):
        # T(-t) = P T(t) P with P = diag(1, -1, 1, -1, ...), bit for bit, and
        # the central rows and columns of T are the public blocks
        forward, backward = reversal_pair(2.0)
        n = forward.n_modes
        parity = (-1.0) ** np.arange(2 * n + 2)
        assert np.array_equal(backward.transfer, parity[:, None] * forward.transfer * parity)
        for props in (forward, backward):
            a, b, c, _ = dense_blocks(props)
            assert np.array_equal(a, props.a)
            assert np.array_equal(b, np.transpose(props.b, (1, 0, 2)).reshape(2, 2 * n))
            assert np.array_equal(c, props.c.reshape(2 * n, 2))
        with pytest.raises(ValueError, match="transfer must have shape"):
            dataclasses.replace(forward, transfer=forward.transfer[:-1])
        # not assembled without the flag, nor for weak-coupling blocks
        bath, coupled, table = wide_bath_table()
        assert exact_bath_matrices(bath, coupled, table, 0.5).transfer is None
        with warnings.catch_warnings():
            # the oracle bath sits above the weak-coupling regime bound
            warnings.simplefilter("ignore", CouplingStrengthWarning)
            assert weak_coupling_matrices(bath, coupled, 0.5).transfer is None

    @pytest.mark.parametrize("t", [0.5, 5.0, -10.0, 20.0])
    def test_reversed_flow_is_parity_conjugate(self, t):
        # C is even and S odd in t, so T(-t) = P T(t) P bit for bit at any
        # time, on and off the table's span, and so are the light blocks
        bath, coupled, table = wide_bath_table()
        forward, backward = (
            exact_bath_matrices(bath, coupled, table, sign * t, include_d_corrections=True)
            for sign in (1.0, -1.0)
        )
        parity = (-1.0) ** np.arange(2 * bath.n_modes + 2)
        assert np.array_equal(backward.transfer, parity[:, None] * forward.transfer * parity)
        light, light_back = (
            exact_bath_matrices(bath, coupled, table, sign * t) for sign in (1.0, -1.0)
        )
        assert np.array_equal(light_back.a, parity[:2, None] * light.a * parity[:2])
        for block in ("b", "c"):
            flipped = getattr(light, block) * parity[:2, None] * parity[:2]
            assert np.array_equal(getattr(light_back, block), flipped), block

    @pytest.mark.parametrize("t", [5.0, 20.0])
    def test_dense_products_hold_at_any_worker_count(self, monkeypatch, t):
        # T(t), T(-t) and the round trip on the benchmark's bath, cut into
        # 1, 2 and 3 row spans: a span's products round differently from the
        # whole one, so T moves by round-off, but the parity conjugation is
        # exact at every count and the round trip stays at round-off. Three
        # workers outnumber the cores, and a short switch interval interleaves
        # them, so a span written to another's rows would show.
        bath, coupled, table = route_bath_table()
        parity = (-1.0) ** np.arange(2 * bath.n_modes + 2)
        single = None
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(_parallel, "WORKERS", workers)
                forward, backward = (
                    exact_bath_matrices(bath, coupled, table, sign * t, include_d_corrections=True)
                    for sign in (1.0, -1.0)
                )
                assert np.array_equal(
                    backward.transfer, parity[:, None] * forward.transfer * parity
                )
                residuals = reversibility_residuals(forward, backward)
                assert max(residuals.values()) <= 1e-12, (workers, residuals)
                if single is None:
                    single = forward.transfer
                gap = np.abs(forward.transfer - single).max()
                assert gap <= 1e-15 * np.abs(single).max(), (workers, gap)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("t", [0.5, 5.0, -10.0, 20.0])
    def test_flow_rows_of_any_sites_match_dense(self, t):
        # the one evaluator forms the rows of any run of sites; each must be
        # the same rows of the dense T to round-off of the shorter product
        bath, _, table = wide_bath_table()
        size = bath.n_modes + 1

        def flow_rows(sites):
            start, stop, _ = sites.indices(size)
            out = np.empty((2 * (stop - start), 2 * size))
            _flow_rows(table.basis, t, sites, out)
            return out

        dense = flow_rows(slice(None))
        scale = np.abs(dense).max()
        for sites in (slice(0, 1), slice(3, 40), slice(bath.n_modes - 2, None)):
            start, stop, _ = sites.indices(size)
            gap = np.abs(flow_rows(sites) - dense[2 * start : 2 * stop]).max()
            assert gap <= 1e-14 * scale, sites

    def test_propagators_reject_inconsistent_tags(self):
        forward, _ = reversal_pair(2.0)
        with warnings.catch_warnings():
            # the oracle bath sits above the weak-coupling regime bound
            warnings.simplefilter("ignore", CouplingStrengthWarning)
            weak = weak_coupling_matrices(forward.bath, forward.system, 2.0)
        with pytest.raises(ValueError, match="kind must be"):
            dataclasses.replace(weak, kind="exakt")
        with pytest.raises(ValueError, match="dense transfer"):
            dataclasses.replace(forward, kind="small_angle")
        with pytest.raises(ValueError, match="dense transfer"):
            dataclasses.replace(weak, transfer=forward.transfer)
        with pytest.raises(ValueError, match="dense transfer"):
            dataclasses.replace(forward, kind="weak_coupling")
        with pytest.raises(ValueError, match="need exact blocks"):
            reversibility_residuals(weak, weak)
        # the combinations the builders make are accepted
        dataclasses.replace(weak, kind="small_angle")
        dataclasses.replace(forward, transfer=None)

    def test_residuals_repeat_bitwise(self):
        forward, backward = reversal_pair(1.0)
        inputs = forward.transfer.copy(), backward.transfer.copy()
        first = reversibility_residuals(forward, backward)
        assert list(first) == RESIDUAL_KEYS
        assert reversibility_residuals(forward, backward) == first
        # the inputs are read, never written
        assert np.array_equal(forward.transfer, inputs[0])
        assert np.array_equal(backward.transfer, inputs[1])

    def test_residuals_vanish_at_time_zero(self):
        # T(0) is the identity exactly, so every residual matrix is zero
        forward, backward = reversal_pair(0.0)
        assert reversibility_residuals(forward, backward) == dict.fromkeys(RESIDUAL_KEYS, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 7, 50, 6401])
    def test_phase_sums_match_long_double(self, n):
        # one node, one whole block (n = 2), and padded last blocks (7, 50,
        # 6401); each line's phase rounds by about eps * w tau, which does
        # not average out over thousands of nodes
        rng = np.random.default_rng(n)
        frequencies = rng.uniform(0.05, 100.0, 64)
        step = 1.0 / 320.0
        nodes = np.arange(n) * step
        angles = np.multiply.outer(frequencies.astype(np.longdouble), nodes.astype(np.longdouble))
        line_weights = rng.standard_normal((frequencies.size, 3))
        sums = phase_sums(frequencies, step, line_weights, n)
        wide = line_weights.astype(np.longdouble)
        scale = (1.0 + angles.T.astype(float)) @ np.abs(line_weights)
        assert np.all(np.abs(sums.real - (np.cos(angles).T @ wide)) <= 1e-15 * scale)
        assert np.all(np.abs(sums.imag - (np.sin(angles).T @ wide)) <= 1e-15 * scale)


def _rejection(case):
    """``(call, message)`` for one input that an entry point of the bath route rejects."""
    system = OscillatorSystemSpec()
    params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)
    bath = discretize_spectral_density(params, system, 16)
    forward, _ = reversal_pair(2.0)
    props = weak_coupling_matrices(bath, system, 0.5, small_angle=True)
    sample = sample_bath(bath, seed=3)
    rows = dict(masses=np.ones(3), frequencies=np.ones(3), couplings=np.ones(3), thermal_energy=1.0)
    flat = {name: np.ones((1, 3)) for name in ("masses", "frequencies", "couplings")}

    def table():
        spectral = SpectralDensity.from_bath(forward.bath)
        bare = forward.system.bare_frequency
        return solve_g_kernel(spectral, bare, 0.1, 1e-3, mass=forward.system.mass)

    def blocks(**changes):
        system = dataclasses.replace(forward.system, **changes)
        return exact_bath_matrices(forward.bath, system, table(), 1.0)

    cases = {
        "bath-lengths": (
            lambda: BathSpec(**{**rows, "frequencies": np.ones(2)}),
            "masses, frequencies and couplings must be 1-D and equal length",
        ),
        "bath-2d": (
            lambda: BathSpec(**{**rows, **flat}),
            "masses, frequencies and couplings must be 1-D and equal length",
        ),
        "bath-sign": (
            lambda: BathSpec(**{**rows, "frequencies": np.array([1.0, -2.0, 3.0])}),
            "mode masses and frequencies must be positive",
        ),
        "sample-lengths": (
            lambda: CoherentBathSample(positions=[0.1, 0.2], momenta=[0.0], seed=1),
            "positions and momenta must be 1-D and equal length",
        ),
        "density-without-bath": (
            lambda: SpectralDensity("discrete"), "a discrete density requires a bath"
        ),
        "density-kind": (
            lambda: SpectralDensity("lorentzian"), "unknown spectral density kind 'lorentzian'"
        ),
        "no-modes": (
            lambda: discretize_spectral_density(params, system, 0), "n_modes must be at least 1"
        ),
        "cold-bath": (
            lambda: discretize_spectral_density(
                dataclasses.replace(params, thermal_energy=0.0), system, 16
            ),
            "a sampled bath needs a positive temperature",
        ),
        "line-without-mass": (
            lambda: solve_g_kernel(SpectralDensity.from_bath(bath), 1.0, 0.1, 1e-3),
            "a line spectrum requires the central mass",
        ),
        "blocks-bare-frequency": (
            lambda: blocks(bare_frequency=1.1 * forward.system.bare_frequency),
            "g_table was solved for a different bare frequency than the system's",
        ),
        "blocks-mass": (
            lambda: blocks(mass=2.0), "g_table was solved for a different central mass"
        ),
        "residuals-time": (
            lambda: reversibility_residuals(forward, forward),
            "backward blocks must be evaluated at minus the forward time",
        ),
        "kernel-kind": (
            lambda: conditional_kernel(
                weak_coupling_matrices(bath, system, 0.5), bath, sample, 0.5
            ),
            "conditioning requires small-angle weak-coupling blocks",
        ),
        "kernel-time": (
            lambda: conditional_kernel(props, bath, sample, 0.6),
            "t does not match the time of the supplied blocks",
        ),
        "slice-length": (
            lambda: conditional_kernel(props, bath, sample, 0.5).slice_quadratic(np.zeros(3), 0.0),
            r"bath_slice must supply one position per mode \(16\), got shape \(3,\)",
        ),
        "m-tilde-asymptote": (
            lambda: cl_m_tilde_asymptote(params, system, 0.01),
            r"the log asymptote needs cutoff \* t > 1",
        ),
        "sigma3-asymptote": (
            lambda: cl_sigma3_squared_asymptote(params, system, 0.005),
            r"the log asymptote needs cutoff \* t > 1",
        ),
    }
    return cases[case]


@pytest.mark.parametrize(
    "case",
    [
        "bath-lengths", "bath-2d", "bath-sign", "sample-lengths", "density-without-bath",
        "density-kind", "no-modes", "cold-bath", "line-without-mass",
        "blocks-bare-frequency", "blocks-mass", "residuals-time", "kernel-kind",
        "kernel-time", "slice-length", "m-tilde-asymptote", "sigma3-asymptote",
    ],
)
def test_inconsistent_input_is_rejected(case):
    call, message = _rejection(case)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "case",
    [
        "slice-nan", "slice-negative", "slice-inf", "tables-step-nan", "tables-step-negative",
        "tables-count", "tables-bare-frequency", "tables-mass",
    ],
)
def test_spectral_methods_check_their_input(case):
    # both methods are public, so each checks its own arguments: unchecked, a
    # NaN or negative time gave NaN or -7.5e19 integrals, a NaN or negative
    # step NaN tables or tables at negative times, count 2.5 three nodes, and a
    # zero frequency or mass a bare ZeroDivisionError
    ohmic = SpectralDensity.from_ohmic(OscillatorSystemSpec(), 1e-2, 100.0)
    calls = {
        "slice-nan": (lambda: ohmic.slice_integrals(np.nan), "t = nan is not finite"),
        "slice-negative": (
            lambda: ohmic.slice_integrals(-1.0), "t must be non-negative, got -1"
        ),
        "slice-inf": (lambda: ohmic.slice_integrals(np.inf), "t = inf is not finite"),
        "tables-step-nan": (
            lambda: ohmic.kernel_tables(1.0, 1.0, np.nan, 10), "step = nan is not finite"
        ),
        "tables-step-negative": (
            lambda: ohmic.kernel_tables(1.0, 1.0, -1.0, 10), "step must be positive, got -1"
        ),
        "tables-count": (
            lambda: ohmic.kernel_tables(1.0, 1.0, 1e-3, 2.5), "count must be an integer, got 2.5"
        ),
        "tables-bare-frequency": (
            lambda: ohmic.kernel_tables(0.0, 1.0, 1e-3, 10),
            "bare_frequency must be positive, got 0",
        ),
        "tables-mass": (
            lambda: ohmic.kernel_tables(1.0, 0.0, 1e-3, 10), "mass must be positive, got 0"
        ),
    }
    call, message = calls[case]
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("strength, warns", [(0.005, False), (0.02, True)])
def test_coupling_warning_starts_at_one_percent(strength, warns):
    # one mode of unit mass and frequency: the coupling measure is kappa^2
    bath = BathSpec(
        masses=[1.0], frequencies=[1.0], couplings=[np.sqrt(strength)], thermal_energy=1.0
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        weak_coupling_matrices(bath, OscillatorSystemSpec(), 0.5)
    assert any(issubclass(w.category, CouplingStrengthWarning) for w in caught) is warns


@pytest.mark.parametrize("excess, valid", [(4e-13, True), (4e-12, False)])
def test_matching_times_are_held_to_1e_12(excess, valid):
    # the blocks' and the kernel's times must agree to 1e-12 relative, the
    # one rule every matched time, mass and frequency of the bath route obeys
    system = OscillatorSystemSpec()
    params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)
    bath = discretize_spectral_density(params, system, 16)
    props = weak_coupling_matrices(bath, system, 0.5, small_angle=True)
    sample = sample_bath(bath, seed=3)
    if valid:
        conditional_kernel(props, bath, sample, 0.5 * (1.0 + excess))
    else:
        with pytest.raises(ValueError, match="t does not match the time"):
            conditional_kernel(props, bath, sample, 0.5 * (1.0 + excess))


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
        with pytest.raises(ValueError, match=rf"\b{field}( = \S+ is not finite| has non-finite entries)$"):
            BathSpec(**bath)
            solve_g_kernel(SpectralDensity(**ohmic), **solver)

    @pytest.mark.parametrize(
        "field, bad, rule",
        [
            ("thermal_energy", 0.0, "positive"), ("hbar", -1.0, "positive"),
            ("damping_rate", -1e-3, "non-negative"), ("cutoff", 0.0, "positive"),
            ("mass", -1.0, "positive"), ("bare_frequency", 0.0, "positive"),
            ("t_max", -1.0, "positive"), ("step", 0.0, "positive"),
        ],
    )
    def test_rejects_out_of_range(self, field, bad, rule):
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
            if field in values:
                values[field] = bad
        with pytest.raises(ValueError, match=rf"\b{field} must be {rule}, got {bad:g}$"):
            BathSpec(**bath)
            solve_g_kernel(SpectralDensity(**ohmic), **solver)

    @pytest.mark.parametrize("bad", [2.5, np.nan, np.inf, True])
    def test_discretization_rejects_fractional_mode_count(self, bad):
        with pytest.raises(ValueError, match="n_modes must be an integer"):
            discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), bad)

    def test_discretization_takes_whole_float_mode_count(self):
        system = OscillatorSystemSpec()
        bath = discretize_spectral_density(oracle_params(), system, 3.0)
        assert bath.n_modes == 3
        expected = discretize_spectral_density(oracle_params(), system, 3)
        assert np.array_equal(bath.frequencies, expected.frequencies)
        assert np.array_equal(bath.couplings, expected.couplings)


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

    @pytest.mark.parametrize("seed", [0, 11, np.int64(7), 12.0, 2**40])
    def test_seed_reaches_the_generator_unchanged(self, seed):
        bath = discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), 16)
        sample = sample_bath(bath, seed)
        draws = np.random.Generator(np.random.Philox(int(seed))).standard_normal(32)
        spread = np.sqrt(1.0 / np.expm1(bath.thermal_ratios))
        assert np.array_equal(sample.positions, draws[:16] * bath.coherent_widths * spread)
        assert np.array_equal(
            sample.momenta, draws[16:] * (bath.hbar / bath.coherent_widths) * spread
        )
        assert type(sample.seed) is int and sample.seed == seed

    @pytest.mark.parametrize(
        "seed, rule", [(1.5, "an integer"), (np.nan, "an integer"), (True, "an integer"),
                       (-1, "non-negative")]
    )
    def test_rejects_bad_seed(self, seed, rule):
        bath = discretize_spectral_density(oracle_params(), OscillatorSystemSpec(), 4)
        with pytest.raises(ValueError, match=f"^seed must be {rule}"):
            sample_bath(bath, seed)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["positions", "momenta"])
    def test_rejects_nonfinite_centres(self, field, bad):
        centres = dict(positions=[0.1, 0.2], momenta=[0.0, -0.3])
        centres[field] = [0.1, bad]
        with pytest.raises(ValueError, match=rf"^CoherentBathSample\.{field} has non-finite entries$"):
            CoherentBathSample(**centres, seed=1)


def _row():
    return np.array([1.0, 2.0])


def _bath_fields():
    return dict(masses=_row(), frequencies=_row(), couplings=_row(), thermal_energy=1.0)


@pytest.mark.parametrize(
    "cls, arguments",
    [
        (CoherentBathSample, lambda: dict(positions=_row(), momenta=_row(), seed=0)),
        (BathSpec, _bath_fields),
        (GKernelTable, lambda: dict(
            times=_row(), values=_row(), first_derivative=_row(), second_derivative=_row(),
            bare_frequency=1.0, mass=1.0, step=1.0,
        )),
        (NormalModeBasis, lambda: dict(
            bath=BathSpec(**_bath_fields()), root_masses=_row(), frequencies=_row(),
            vectors=np.eye(2),
        )),
    ],
    ids=["CoherentBathSample", "BathSpec", "GKernelTable", "NormalModeBasis"],
)
def test_stored_arrays_are_read_only_copies(cls, arguments):
    # each class stores read-only copies: the caller's arrays stay writeable,
    # and writing to them leaves the stored values alone
    given = arguments()
    stored = cls(**given)
    arrays = {name: value for name, value in given.items() if isinstance(value, np.ndarray)}
    assert arrays
    for name, array in arrays.items():
        assert array.flags.writeable
        assert not getattr(stored, name).flags.writeable
        before = array.copy()
        array[...] = 7.0
        assert np.array_equal(getattr(stored, name), before)


class TestNonfiniteInput:
    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "entry",
        [
            "exact_bath_matrices",
            "weak_coupling_matrices",
            "conditional_kernel",
            "m_tilde_matrix",
            "sigma3_squared",
            "classicality_report",
        ],
    )
    def test_times_are_rejected(self, entry, t):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)
        bath = discretize_spectral_density(params, system, 16)
        spectral = SpectralDensity.from_bath(bath)
        props = weak_coupling_matrices(bath, system, 0.5, small_angle=True)
        orbit = classical_orbit(build_energy_band_state(50, 8), system)
        bare = counterterm_bare_frequency(bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
        calls = {
            "exact_bath_matrices": lambda: exact_bath_matrices(
                bath, coupled, solve_g_kernel(spectral, bare, 0.1, 1e-3, mass=system.mass), t
            ),
            "weak_coupling_matrices": lambda: weak_coupling_matrices(bath, system, t),
            "conditional_kernel": lambda: conditional_kernel(
                props, bath, sample_bath(bath, seed=3), t
            ),
            "m_tilde_matrix": lambda: m_tilde_matrix(spectral, system, t),
            "sigma3_squared": lambda: sigma3_squared(spectral, system, t),
            "classicality_report": lambda: classicality_report(system, orbit, params, t),
        }
        with pytest.raises(ValueError, match=f"t = {t:g} is not finite"):
            calls[entry]()

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_conditional_velocity_rejects_position(self, x):
        run = _canonical_conditioning(2.0)
        bath_slice = run.kernel.conditional_peaks(0.0, 0.0)
        with pytest.raises(ValueError, match=f"x = {x:g} is not finite"):
            conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_conditional_velocity_rejects_slice(self, bad):
        run = _canonical_conditioning(2.0)
        x = 0.3 * run.orbit.amplitude
        bath_slice = run.kernel.conditional_peaks(x, float(run.orbit.classical_momentum(x)))
        bath_slice[5] = bad
        with pytest.raises(ValueError, match="bath_slice has non-finite entries"):
            conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_slice_quadratic_rejects_slice(self, bad):
        run = _canonical_conditioning(2.0)
        bath_slice = run.kernel.conditional_peaks(0.0, 0.0)
        bath_slice[5] = bad
        with pytest.raises(ValueError, match="bath_slice has non-finite entries"):
            run.kernel.slice_quadratic(bath_slice, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", ["peaks_x", "peaks_p", "slice_x"])
    def test_kernel_rejects_nonfinite_point(self, call, bad):
        kernel = _canonical_conditioning(2.0).kernel
        bath_slice = kernel.conditional_peaks(0.0, 0.0)
        calls = {
            "peaks_x": (lambda: kernel.conditional_peaks(bad, 1.0), "x"),
            "peaks_p": (lambda: kernel.conditional_peaks(0.1, bad), "p"),
            "slice_x": (lambda: kernel.slice_quadratic(bath_slice, bad), "x"),
        }
        evaluate, name = calls[call]
        with pytest.raises(ValueError, match=f"{name} = {bad:g} is not finite"):
            evaluate()


class TestConditionalVelocity:
    @pytest.mark.parametrize("length", [1, 3])
    @pytest.mark.parametrize("row", ["peak_offset", "x_response", "p_response"])
    def test_kernel_rejects_misshapen_rows(self, row, length):
        # a length-1 row would broadcast silently in conditional_peaks
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)
        bath = discretize_spectral_density(params, system, 8)
        rows = dict(peak_offset=np.zeros(8), x_response=np.ones(8), p_response=np.ones(8))
        rows[row] = np.ones(length)
        with pytest.raises(ValueError, match=rf"{row} must have shape \(8,\)"):
            ConditionalKernel(system, bath, **rows, minv=None)

    def test_kernel_needs_the_blocks_bath(self):
        # small-angle blocks of another bath with the same mode count would
        # give every mode the wrong conditional peak without an error
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)
        bath = discretize_spectral_density(params, system, 16)
        sample = sample_bath(bath, seed=3)
        for name in ("masses", "frequencies", "couplings"):
            values = getattr(bath, name).copy()
            values[3] *= 1.0 + 1e-9
            other = dataclasses.replace(bath, **{name: values})
            props = weak_coupling_matrices(other, system, 0.5, small_angle=True)
            with pytest.raises(ValueError, match="bath differs"):
                conditional_kernel(props, bath, sample, 0.5)
        hot = dataclasses.replace(bath, thermal_energy=3.0 * bath.thermal_energy)
        props = weak_coupling_matrices(hot, system, 0.5, small_angle=True)
        assert conditional_kernel(props, bath, sample, 0.5).bath is bath
        short = discretize_spectral_density(params, system, 15)
        with pytest.raises(ValueError, match="disagree on the mode count"):
            conditional_kernel(props, bath, sample_bath(short, seed=3), 0.5)

    def test_explicit_bath_route_loads_no_scipy(self):
        # the explicit-bath route in a fresh interpreter, on a line spectrum and
        # on the ohmic continuum: Si, Ci, Lambert W and the Lanczos norm are
        # numpy code and no stage transforms or interpolates a grid, so no
        # scipy module loads
        code = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from bohmdec.bath_dynamics import (SpectralDensity, classicality_report,\n"
            "    conditional_kernel, conditional_velocity, counterterm_bare_frequency,\n"
            "    discretize_spectral_density, exact_bath_matrices, reversibility_residuals,\n"
            "    sample_bath, solve_g_kernel, weak_coupling_matrices)\n"
            "from bohmdec.phase_space import (OscillatorSystemSpec, build_energy_band_state,\n"
            "    classical_orbit, wkb_amplitudes)\n"
            "from bohmdec.quadratic_master import CaldeiraLeggettParams\n"
            "system = OscillatorSystemSpec()\n"
            "params = CaldeiraLeggettParams(damping_rate=1e-6, thermal_energy=1e3, cutoff=100.0)\n"
            "bath = discretize_spectral_density(params, system, 64)\n"
            "bare = counterterm_bare_frequency(bath, system)\n"
            "coupled = dataclasses.replace(system, bare_frequency=bare)\n"
            "ohmic = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)\n"
            "assert np.isfinite(solve_g_kernel(ohmic, bare, 0.5, 5e-4).values).all()\n"
            "lines = SpectralDensity.from_bath(bath)\n"
            "table = solve_g_kernel(lines, bare, 0.5, 5e-4, mass=system.mass)\n"
            "forward, backward = (exact_bath_matrices(bath, coupled, table, sign * 0.5,\n"
            "    include_d_corrections=True) for sign in (1.0, -1.0))\n"
            "assert max(reversibility_residuals(forward, backward).values()) < 1e-9\n"
            "props = weak_coupling_matrices(bath, system, 0.5, small_angle=True)\n"
            "state = build_energy_band_state(50, 8)\n"
            "orbit = classical_orbit(state, system)\n"
            "wkb = wkb_amplitudes(state, orbit, system)\n"
            "x = 0.3 * orbit.amplitude\n"
            "for spectral in (None, ohmic):\n"
            "    kernel = conditional_kernel(props, bath, sample_bath(bath, seed=3), 0.5,\n"
            "        spectral=spectral)\n"
            "    bath_slice = kernel.conditional_peaks(x, float(orbit.classical_momentum(x)))\n"
            "    v = conditional_velocity(state, orbit, wkb, kernel, x, bath_slice)\n"
            "    assert np.isfinite(v)\n"
            "cl = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)\n"
            "assert classicality_report(system, orbit, cl, 2.0).conditional_smearing_time > 0\n"
            "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not scipy, scipy\n"
        )
        run_fresh(code)

    def test_benchmark_bath_pass_loads_no_scipy(self):
        # perfbench's own bath_route set-up and pass, at the smoke test's sizes
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        code = (
            "import dataclasses, sys\n"
            f"sys.path.insert(0, {str(perfbench)!r})\n"
            "from smoke import SMALL\n"
            "from tracing import NullTracer, public_api\n"
            "from workloads import WORKLOADS, Ledger\n"
            "cfg, setup, run_pass = WORKLOADS['bath_route']\n"
            "cfg = dataclasses.replace(cfg, **SMALL['bath_route'])\n"
            "api = public_api(NullTracer())\n"
            "ledger = Ledger(api, NullTracer())\n"
            "run_pass(ledger, cfg, setup(api, cfg, 7))\n"
            "assert ledger.attempted and not ledger.failed, ledger.failures\n"
            "scipy = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not scipy, scipy\n"
        )
        run_fresh(code)

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

    def test_kernel_is_degenerate_only_for_an_all_zero_matrix(self):
        # the benchmark's band bath: at t = 1e-4 the smearing matrix has a
        # condition number of 1.5e17 and its determinant is lost to
        # cancellation; that is a failure, not a degenerate kernel
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        bath = discretize_spectral_density(params, system, 512)
        sample = sample_bath(bath, seed=11)
        kernels = {}
        for t in (0.0, 1e-4, 0.5):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CouplingStrengthWarning)
                props = weak_coupling_matrices(bath, system, t, small_angle=True)
            if t == 1e-4:
                with pytest.raises(NumericalFailureError, match="t = 0.0001"):
                    conditional_kernel(props, bath, sample, t)
            else:
                kernels[t] = conditional_kernel(props, bath, sample, t)
        assert kernels[0.0].degenerate
        m_tilde = m_tilde_matrix(SpectralDensity.from_bath(bath), system, 0.5)
        assert kernels[0.5].minv == MInverseParams.from_m_matrix(m_tilde)

    def test_cancelled_determinant_is_rejected(self):
        # the benchmark's band bath at t = 1e-6: m00 m11 / det = 5.8e15 and the
        # float determinant is 2.8 times the exact 4.34e-64, yet it passed the
        # determinant cross-check and gave a velocity of -9.59 at 0.3 x_max
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        bath = discretize_spectral_density(params, system, 512)
        m_tilde = m_tilde_matrix(SpectralDensity.from_bath(bath), system, 1e-6)
        with pytest.raises(ValueError, match="cancellation"):
            MInverseParams.from_m_matrix(m_tilde)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CouplingStrengthWarning)
            props = weak_coupling_matrices(bath, system, 1e-6, small_angle=True)
        with pytest.raises(NumericalFailureError, match="cancellation"):
            conditional_kernel(props, bath, sample_bath(bath, seed=11), 1e-6)

    @pytest.mark.parametrize("t", [5e-4, 0.5, 2.0, 4.0])
    def test_benchmark_times_keep_their_inverse(self, t):
        # the conditioning times of the benchmark's band bath, and 5e-4 where
        # the float and the exact determinant still agree, invert as before
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        bath = discretize_spectral_density(params, system, 512)
        continuum = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        for spectral in (SpectralDensity.from_bath(bath), continuum):
            m = m_tilde_matrix(spectral, system, t)
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            assert MInverseParams.from_m_matrix(m) == MInverseParams(
                a=m[1, 1] / det, c=-m[0, 1] / det, b=m[0, 0] / det, delta=1.0 / det
            )

    def test_orbit_must_be_the_branch_amplitudes_orbit(self):
        # the n = 50 band's amplitudes read on the n = 60 band's orbit gave
        # -1.28 instead of -0.91 at 0.3 x_max, with no error
        run = _canonical_conditioning(2.0)
        x = 0.3 * run.orbit.amplitude
        bath_slice = run.kernel.conditional_peaks(x, float(run.orbit.classical_momentum(x)))
        other = classical_orbit(build_energy_band_state(60, 8), run.system)
        with pytest.raises(ValueError, match="another orbit"):
            SemiclassicalDecomposition(run.kernel.minv, other, run.wkb)
        with pytest.raises(ValueError, match="another orbit"):
            conditional_velocity(run.state, other, run.wkb, run.kernel, x, bath_slice)
        # an equal orbit built apart is the same orbit
        twin = classical_orbit(run.state, run.system)
        assert twin is not run.orbit
        v = conditional_velocity(run.state, twin, run.wkb, run.kernel, x, bath_slice)
        assert v == conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)
        assert v == pytest.approx(-0.91, abs=0.005)

    def test_kernel_needs_the_orbits_system(self):
        # the canonical kernel rebuilt on a mass-2 oscillator read -2.121 at
        # 0.3 x_max of the mass-1 orbit, at its own conditional peaks, where
        # the matched kernel reads -0.914
        run = _canonical_conditioning(2.0)
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)

        def kernel_on(system):
            bath = discretize_spectral_density(params, system, 64)
            continuum = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
            with warnings.catch_warnings():
                # the canonical-parameter bath sits above the weak-coupling bound
                warnings.simplefilter("ignore", CouplingStrengthWarning)
                props = weak_coupling_matrices(bath, system, 2.0, small_angle=True)
            return conditional_kernel(
                props, bath, sample_bath(bath, seed=17), 2.0, spectral=continuum
            )

        x = 0.3 * run.orbit.amplitude
        p_cl = float(run.orbit.classical_momentum(x))
        heavy = kernel_on(OscillatorSystemSpec(mass=2.0))
        with pytest.raises(ValueError, match="system differs from the orbit's"):
            conditional_velocity(
                run.state, run.orbit, run.wkb, heavy, x, heavy.conditional_peaks(x, p_cl)
            )
        # a kernel on an equal oscillator built apart is the run's kernel
        twin = kernel_on(OscillatorSystemSpec())
        assert twin.system is not run.orbit.system
        bath_slice = run.kernel.conditional_peaks(x, p_cl)
        v = conditional_velocity(run.state, run.orbit, run.wkb, twin, x, bath_slice)
        assert v == conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)
        assert v == pytest.approx(-0.914, abs=5e-4)
        # the counterterm-shifted oscillator of the explicit bath differs from
        # the orbit's in its bare frequency alone, which no orbit reads
        bare = counterterm_bare_frequency(
            discretize_spectral_density(params, run.system, 64), run.system
        )
        coupled = kernel_on(dataclasses.replace(run.system, bare_frequency=bare))
        assert coupled.system.bare_frequency != run.orbit.system.bare_frequency
        assert conditional_velocity(run.state, run.orbit, run.wkb, coupled, x, bath_slice) == v

    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_state_must_be_the_branch_amplitudes_state(self, t):
        # the n = 60 band's state with the n = 50 band's amplitudes gave
        # -11.438 at t = 0 and 0.3 x_max, where the matched pair gives -10.188
        run = _canonical_conditioning(t)
        x = 0.3 * run.orbit.amplitude
        bath_slice = run.kernel.conditional_peaks(x, float(run.orbit.classical_momentum(x)))
        assert run.kernel.degenerate == (t == 0.0)
        other = build_energy_band_state(60, 8)
        with pytest.raises(ValueError, match="another state"):
            conditional_velocity(other, run.orbit, run.wkb, run.kernel, x, bath_slice)
        # an equal state built apart is the same state
        twin = build_energy_band_state(50, 8)
        assert twin is not run.state
        v = conditional_velocity(twin, run.orbit, run.wkb, run.kernel, x, bath_slice)
        assert v == conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)
        if t == 0.0:
            assert v == pytest.approx(-10.188, abs=5e-4)

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
                    expected = _quadrature_velocity(run, run.wkb, x, bath_slice)
                    assert abs(v - expected) <= 1e-9 * p_cl / run.system.mass, (
                        x, branch, jitter
                    )

    def test_matches_array_evaluation_of_the_terms(self):
        # the per-point path (the terms evaluated and combined in float
        # arithmetic) against the same algebra on the public array rows
        run = _canonical_conditioning(2.0)
        direction = np.random.default_rng(23).standard_normal(run.kernel.bath.n_modes)
        for x in np.linspace(-0.8, 0.8, 17) * run.orbit.amplitude:
            p_cl = float(run.orbit.classical_momentum(x))
            for branch in (p_cl, -p_cl):
                for jitter in (0.0, 0.3, 1.0):
                    bath_slice = (
                        run.kernel.conditional_peaks(x, branch)
                        + jitter * run.kernel.bath.coherent_widths * direction
                    )
                    expected = _array_velocity(run.kernel, run.orbit, run.wkb, x, bath_slice)
                    v = conditional_velocity(
                        run.state, run.orbit, run.wkb, run.kernel, x, bath_slice
                    )
                    assert abs(v - expected) <= 1e-13 * abs(expected), (x, branch, jitter)

    @pytest.mark.parametrize("t", [0.5, 2.0, 4.0])
    def test_matches_array_evaluation_on_the_benchmark_bath(self, t):
        # the benchmark's conditioning: 512 canonical-parameter modes, line
        # and continuum smearing, 41 positions in 0.8 x_max, each slice the
        # conditional peaks of the point jittered by 0.1 coherent widths
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        bath = discretize_spectral_density(params, system, 512)
        continuum = SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        state = build_energy_band_state(50, 8)
        orbit = classical_orbit(state, system)
        wkb = wkb_amplitudes(state, orbit, system)
        with warnings.catch_warnings():
            # the canonical-parameter bath sits above the weak-coupling bound
            warnings.simplefilter("ignore", CouplingStrengthWarning)
            props = weak_coupling_matrices(bath, system, t, small_angle=True)
        rng = np.random.default_rng(29)
        x_all = np.linspace(-0.8, 0.8, 41) * orbit.amplitude
        p_all = orbit.classical_momentum(x_all)
        for spectral in (None, continuum):
            kernel = conditional_kernel(
                props, bath, sample_bath(bath, seed=31), t, spectral=spectral
            )
            jitter = 0.1 * bath.coherent_widths * rng.standard_normal((x_all.size, bath.n_modes))
            for x, p_cl, kick in zip(x_all, p_all, jitter):
                bath_slice = kernel.conditional_peaks(x, p_cl) + kick
                expected = _array_velocity(kernel, orbit, wkb, x, bath_slice)
                v = conditional_velocity(state, orbit, wkb, kernel, x, bath_slice)
                assert abs(v - expected) <= 1e-13 * abs(expected), (spectral, x)

    @pytest.mark.parametrize("absent", [(0,), (1,), (0, 1)], ids=["plus", "minus", "both"])
    def test_absent_branches(self, absent):
        run = _canonical_conditioning(2.0)

        class Masked(WkbAmplitudes):
            def amplitudes(self, x):
                return tuple(
                    np.zeros_like(g) if k in absent else g
                    for k, g in enumerate(super().amplitudes(x))
                )

        wkb = Masked(run.state, run.orbit)
        x = 0.3 * run.orbit.amplitude
        p_cl = float(run.orbit.classical_momentum(x))
        bath_slice = run.kernel.conditional_peaks(x, p_cl)
        if len(absent) == 2:
            with pytest.raises(UndefinedVelocityError, match="no branch density"):
                conditional_velocity(run.state, run.orbit, wkb, run.kernel, x, bath_slice)
            return
        v = conditional_velocity(run.state, run.orbit, wkb, run.kernel, x, bath_slice)
        expected = _quadrature_velocity(run, wkb, x, bath_slice)
        assert abs(v - expected) <= 1e-9 * p_cl / run.system.mass

    @pytest.mark.parametrize("t", [2.0, 4.0])
    def test_position_margin_matches_validity_window(self, t):
        # scaling M^-1 by s scales validity_window's position_spread margin by
        # s^1.5; kernels whose margins straddle 1 by a few ulps fail the
        # velocity's gate exactly when that margin is below 1
        run = _canonical_conditioning(t)
        x = 0.3 * run.orbit.amplitude
        p_cl = float(run.orbit.classical_momentum(x))

        def scaled(s):
            minv = run.kernel.minv
            wide = MInverseParams(
                a=s * minv.a, c=s * minv.c, b=s * minv.b, delta=s * s * minv.delta
            )
            margin = validity_window(wide, run.orbit, run.system).margins["position_spread"]
            kernel = dataclasses.replace(run.kernel, minv=wide)
            return kernel, kernel.conditional_peaks(x, p_cl), margin

        boundary = scaled(1.0)[2] ** (-2.0 / 3.0)
        below = 0
        for k in range(-8, 9):
            kernel, bath_slice, margin = scaled(boundary * (1.0 + k * 2e-16))
            if margin < 1.0:
                below += 1
                with pytest.raises(DomainValidityError, match="position_spread"):
                    conditional_velocity(run.state, run.orbit, run.wkb, kernel, x, bath_slice)
            else:
                conditional_velocity(run.state, run.orbit, run.wkb, kernel, x, bath_slice)
        assert 0 < below < 17

        kernel, bath_slice, margin = scaled(boundary * 0.5 ** (2.0 / 3.0))
        assert margin == pytest.approx(0.5, rel=1e-12)
        with pytest.raises(DomainValidityError, match="position_spread = 0.5"):
            conditional_velocity(run.state, run.orbit, run.wkb, kernel, x, bath_slice)

    @pytest.mark.parametrize("fraction", [1.0, -1.0, 1.5])
    def test_position_off_the_orbit_interior_is_rejected(self, fraction):
        run = _canonical_conditioning(2.0)
        x = fraction * run.orbit.amplitude
        bath_slice = run.kernel.conditional_peaks(0.0, 0.0)
        with pytest.raises(DomainValidityError, match="not inside the turning points"):
            conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)

    def test_slice_far_from_every_branch_raises(self):
        run = _canonical_conditioning(2.0)
        x = 0.3 * run.orbit.amplitude
        p_cl = float(run.orbit.classical_momentum(x))
        widths = run.kernel.bath.coherent_widths
        bath_slice = run.kernel.conditional_peaks(x, p_cl) + 10.0 * widths
        with pytest.raises(UndefinedVelocityError, match="representable floor"):
            conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)

    def test_log_mass_floor_is_pinned(self):
        # A slice 3 coherent widths past every peak leaves the largest branch
        # mass within e^-700 of the reference: it reads 11.346. At 4 widths
        # it does not; a floor of 1400 let that slice read 13.819, and a floor
        # of 350 rejects both.
        run = _canonical_conditioning(2.0)
        x = 0.3 * run.orbit.amplitude
        peaks = run.kernel.conditional_peaks(x, float(run.orbit.classical_momentum(x)))
        widths = run.kernel.bath.coherent_widths
        args = run.state, run.orbit, run.wkb, run.kernel, x
        assert conditional_velocity(*args, peaks + 3.0 * widths) == pytest.approx(11.346, abs=1e-3)
        with pytest.raises(UndefinedVelocityError, match="representable floor"):
            conditional_velocity(*args, peaks + 4.0 * widths)

    def test_tiny_envelope_keeps_its_share(self):
        # The slice sits where the envelope's slice-weighted peak is 1e-7 of
        # the larger branch's: it still moves v by ~1e-6 p_cl / m, so it must
        # enter with its log-domain weight, as in the quadrature oracle.
        run = _canonical_conditioning(2.0, damping_rate=1e-3)
        x = 0.3 * run.orbit.amplitude
        p_cl = float(run.orbit.classical_momentum(x))
        decomp = SemiclassicalDecomposition(run.kernel.minv, run.orbit, run.wkb)
        log_weight, centre, precision = (term[:, 0] for term in decomp.gaussian_terms(x))
        q2 = run.kernel.slice_quadratic(run.kernel.conditional_peaks(x, 0.0), x)[2]

        def log_peak_gap(p_star):
            # a slice at the peaks of p_star weighs p by exp(-q2 (p - p_star)^2)
            peak = log_weight - precision * q2 / (precision + q2) * (centre - p_star) ** 2
            return peak[2] - peak[:2].max() - np.log(1e-7)

        p_star = brentq(log_peak_gap, -20.0 * p_cl, -10.0 * p_cl, xtol=1e-12 * p_cl)
        bath_slice = run.kernel.conditional_peaks(x, p_star)
        v = conditional_velocity(run.state, run.orbit, run.wkb, run.kernel, x, bath_slice)
        expected = _quadrature_velocity(run, run.wkb, x, bath_slice)
        assert abs(v - expected) <= 1e-9 * p_cl / run.system.mass


def _canonical_conditioning(t, damping_rate=1e-4):
    """The n=50 width-8 band and a 64-mode bath conditioned at ``t``.

    The bath has the canonical parameters unless ``damping_rate`` is given.
    ``slice_precision`` is the continuum's slice precision at ``t``.
    """
    system = OscillatorSystemSpec()
    params = CaldeiraLeggettParams(damping_rate=damping_rate, thermal_energy=1e3, cutoff=1e3)
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
        slice_precision=sigma3_squared(continuum, system, t),
    )


def _array_velocity(kernel, orbit, wkb, x, bath_slice):
    """The conditioned velocity by the per-point path's algebra, on the array
    rows of :meth:`SemiclassicalDecomposition.gaussian_terms`."""
    decomp = SemiclassicalDecomposition(kernel.minv, orbit, wkb)
    log_weight, centre, precision = (term[:, 0] for term in decomp.gaussian_terms(x))
    q0, q1, q2 = kernel.slice_quadratic(bath_slice, x)
    curvature = precision + q2
    slope = 2.0 * precision * centre - q1
    log_mass = (
        log_weight - precision * centre**2 - q0
        + slope**2 / (4.0 * curvature) + 0.5 * np.log(np.pi / curvature)
    )
    weights = np.exp(log_mass - log_mass.max())
    return weights @ (slope / (2.0 * curvature)) / weights.sum() / orbit.system.mass


def _quadrature_velocity(run, wkb, x, bath_slice):
    """Oracle for the conditioned velocity at ``x`` under ``run``'s kernel.

    The conditioned distribution (classical part plus the interference
    envelope at unit phase) times the Gaussian slice weight, integrated by
    the trapezoid rule over a momentum grid that spans every term centre by
    12 widths of the widest term and resolves the narrowest.
    """
    kernel = run.kernel
    orbit = wkb.orbit
    decomp = SemiclassicalDecomposition(kernel.minv, orbit, wkb)
    p_cl = float(orbit.classical_momentum(x))
    s_plus, s_minus, _, s2, beta = (float(w[0]) for w in decomp.widths(x))
    widths = [s_plus, s_minus, s2]
    centres = [p_cl, -p_cl, -beta * p_cl]
    reach = 12.0 / min(widths)
    steepest = np.sqrt(max(widths) ** 2 + run.slice_precision)
    p = np.arange(min(centres) - reach, max(centres) + reach, 0.25 / steepest)
    density = (decomp.classical_part(x, p) + decomp.oscillatory_envelope(x, p))[0]
    # slice weight exp(-sum_r (m w / hbar)_r (slice_r - peak_r(x, p))^2), with
    # the peaks affine in p: peak_r(x, p) = peak_r(x, 0) - k_r p
    bath = kernel.bath
    scale = bath.masses * bath.frequencies / bath.hbar
    offset = bath_slice - kernel.conditional_peaks(x, 0.0)
    slope = kernel.p_response
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

    @pytest.mark.parametrize(
        "fraction, error, message",
        [
            (1.0, DomainValidityError, "not inside the turning points"),
            (-1.2, DomainValidityError, "not inside the turning points"),
            (np.nan, ValueError, "x has non-finite entries"),
        ],
    )
    def test_probe_off_the_orbit_interior_is_rejected(self, fraction, error, message):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        orbit = classical_orbit(build_energy_band_state(50, 0), system)
        t = conditional_smearing_time(system, orbit, params)
        with pytest.raises(error, match=message):
            classicality_report(system, orbit, params, t, x=fraction * orbit.amplitude)

    def test_needs_the_orbits_system(self):
        # on the mass-1 band's orbit, an omega = 1.2 oscillator moved the
        # onset from 3.484 to 3.197 and a mass-2 one the slice precision at
        # t = 2 from 0.390 to 0.276, with no error
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=1e-4, thermal_energy=1e3, cutoff=1e3)
        orbit = classical_orbit(build_energy_band_state(50, 8), system)
        fast = OscillatorSystemSpec(bare_frequency=1.2, renormalized_frequency=1.2)
        with pytest.raises(ValueError, match="system differs from the orbit's"):
            conditional_smearing_time(fast, orbit, params)
        with pytest.raises(ValueError, match="system differs from the orbit's"):
            classicality_report(OscillatorSystemSpec(mass=2.0), orbit, params, 2.0)
        # an equal oscillator built apart is the same oscillator
        twin = OscillatorSystemSpec()
        assert conditional_smearing_time(twin, orbit, params) == pytest.approx(3.484, abs=5e-4)
        assert conditional_smearing_time(twin, orbit, params) == conditional_smearing_time(
            system, orbit, params
        )
        report = classicality_report(twin, orbit, params, 2.0)
        assert report == classicality_report(system, orbit, params, 2.0)
        assert report.margins["slice_precision"] == pytest.approx(0.390, abs=5e-4)
        # the orbit reads no bare frequency
        shifted = OscillatorSystemSpec(bare_frequency=0.5)
        assert conditional_smearing_time(shifted, orbit, params) == conditional_smearing_time(
            system, orbit, params
        )
        assert classicality_report(shifted, orbit, params, 2.0) == report

    def test_smearing_time_rejects_zero_damping(self):
        system = OscillatorSystemSpec()
        params = CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=1.0, cutoff=1e3)
        orbit = classical_orbit(build_energy_band_state(50, 0), system)
        with pytest.raises(ValueError, match="damping_rate"):
            conditional_smearing_time(system, orbit, params)
