"""Tests for the quadratic master-equation coefficients and propagator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

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
    compose,
    integrate_propagator,
    nonnegativity_threshold,
    pde_oracle_evolve,
    position_decoherence_factor,
    propagate_wigner,
)

from conftest import widen_momentum_axis


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
        assert coeffs.time_independent

    def test_time_dependent_coefficients(self):
        coeffs = MasterEqCoefficients(
            h1=lambda t: 1.0 + t, h2=1.0, h3=0.0, gamma=0.0, j11=0.0, j12=0.0, j22=0.0
        )
        assert not coeffs.time_independent
        assert coeffs.drift_matrix(2.0)[1, 0] == pytest.approx(3.0)

    def test_time_independent_is_derived(self):
        # a caller-set flag would send time-dependent coefficients down the
        # constant-flow expm shortcut of integrate_propagator
        with pytest.raises(TypeError):
            MasterEqCoefficients(
                h1=lambda t: 1.0 + t, h2=1.0, h3=0.0, gamma=0.0, j11=0.0, j12=0.0, j22=0.0,
                time_independent=True,
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

    def test_ode_route_matches_matrix_exponential(self):
        system = OscillatorSystemSpec(
            mass=2.0, bare_frequency=3.0, renormalized_frequency=3.0
        )
        # a callable coefficient forces the adaptive integrator route
        coeffs = MasterEqCoefficients(
            h1=lambda t: system.mass * system.renormalized_frequency**2,
            h2=1.0 / system.mass,
            h3=0.0,
            gamma=0.0,
            j11=0.0,
            j12=0.0,
            j22=0.0,
        )
        direct = integrate_propagator(
            assemble_cl_coefficients(
                system,
                CaldeiraLeggettParams(damping_rate=0.0, thermal_energy=1.0, cutoff=1.0),
            ),
            0.7,
        )
        adaptive = integrate_propagator(coeffs, 0.7)
        np.testing.assert_allclose(adaptive.a, direct.a, atol=1e-8)
        np.testing.assert_allclose(adaptive.m, direct.m, atol=1e-10)

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


class TestPropagateWigner:
    def test_delta_identity(self, natural_system):
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.zeros(2), 0.5 * np.eye(2))
        prop = GaussianPropagator(0.0, np.eye(2), np.zeros((2, 2)))
        out = propagate_wigner(prop, field, natural_system)
        np.testing.assert_allclose(out.values, field.values, atol=1e-12)
        assert any("delta_fallback" in note for note in out.notes)

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

    def test_nan_cell_raises(self, natural_system):
        x = symmetric_grid(6.0, 0.05)
        field = gaussian_field(x, x, np.array([0.7, -0.4]), 0.5 * np.eye(2))
        field.values[100, 100] = np.nan
        prop = integrate_propagator(default_cl(natural_system), 0.1)
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

    def test_agreement_with_pde_oracle(self, natural_system):
        coeffs = default_cl(natural_system)
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

    def test_threshold_solves_det_condition(self, natural_system):
        coeffs = default_cl(natural_system)
        t_star = nonnegativity_threshold(coeffs, natural_system)
        assert t_star is not None
        det_at_star = np.linalg.det(integrate_propagator(coeffs, t_star).m)
        assert det_at_star == pytest.approx(natural_system.hbar**2, rel=1e-6)

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
