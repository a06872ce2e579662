"""Velocity fields, decomposition parameters, validity margins, timescales."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from bohmdec.bohm_velocity import (
    MInverseParams,
    SemiclassicalDecomposition,
    ValidityReport,
    classical_band_margin,
    ensemble_velocity,
    initial_velocity,
    semiclassical_decomposition,
    timescales,
    validity_window,
)
from bohmdec.bohm_velocity.decomposition import _branch_widths
from bohmdec.errors import (
    DomainValidityError,
    GridCoverageError,
    UndefinedVelocityError,
)
from bohmdec.phase_space import (
    GridSpec,
    OscillatorSystemSpec,
    WignerField,
    band_wavefunction,
    build_energy_band_state,
    exact_oscillator_wigner,
    wigner_transform,
    wkb_amplitudes,
)
from bohmdec.quadratic_master import (
    CaldeiraLeggettParams,
    assemble_cl_coefficients,
    integrate_propagator,
    propagate_wigner,
)
from conftest import trapz, widen_momentum_axis


def rotated_band(state, angle):
    """Band state with coefficients advanced by the free-rotation phases."""
    coeffs = state.coefficients * np.exp(-1j * state.offsets * angle)
    return build_energy_band_state(state.mean_level, state.band_width, coeffs)


def eigenstate_field(n, grid, system):
    values = exact_oscillator_wigner(
        n, grid.x[:, None], grid.p[None, :], system
    )
    return WignerField(x_grid=grid.x, p_grid=grid.p, values=values)


def bulk_columns(run, floor_fraction=0.1, limit=100):
    """Indices of healthy-density grid columns inside |x| <= 0.8 x_max."""
    marginal = run.field0.values.sum(axis=1) * (run.grid.p[1] - run.grid.p[0])
    floor = floor_fraction * marginal.max()
    cols = [
        i
        for i in range(len(run.grid.x))
        if marginal[i] > floor and abs(run.grid.x[i]) < 0.8 * run.orbit.amplitude
    ]
    return cols[:: max(1, len(cols) // limit)]


non_finite = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])


class TestMInverseParams:
    def test_from_m_matrix_matches_numpy_inverse(self):
        m = np.array([[1.2264, -0.0899], [-0.0899, 0.8924]])
        minv = MInverseParams.from_m_matrix(m)
        ref = np.linalg.inv(m)
        assert minv.a == pytest.approx(ref[0, 0], rel=1e-12)
        assert minv.c == pytest.approx(ref[0, 1], rel=1e-12)
        assert minv.b == pytest.approx(ref[1, 1], rel=1e-12)
        assert minv.delta == pytest.approx(1.0 / np.linalg.det(m), rel=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.0, np.pi))
    def test_from_m_matrix_round_trips_inverse(self, log_l1, log_l2, angle):
        # symmetric positive definite M with condition number up to 1e4
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        m = rot @ np.diag([10.0**log_l1, 10.0**log_l2]) @ rot.T
        m = 0.5 * (m + m.T)
        minv = MInverseParams.from_m_matrix(m)
        inverse = np.array([[minv.a, minv.c], [minv.c, minv.b]])
        np.testing.assert_allclose(inverse @ m, np.eye(2), rtol=0.0, atol=1e-11)
        assert minv.delta * np.linalg.det(m) == pytest.approx(1.0, rel=1e-11)

    def test_rejects_inconsistent_determinant(self):
        with pytest.raises(ValueError, match="delta"):
            MInverseParams(a=1.0, c=0.0, b=1.0, delta=0.9)

    @pytest.mark.parametrize(
        "a, c, b, delta",
        [
            (1.0, 0.0, -1.0, -1.0),
            (-1.0, 0.0, 1.0, -1.0),
            (1.0, 2.0, 1.0, -3.0),
            (np.nan, 0.0, np.nan, np.nan),
            (np.inf, 0.0, 1.0, np.inf),
        ],
    )
    def test_rejects_nonpositive_shape(self, a, c, b, delta):
        with pytest.raises(ValueError):
            MInverseParams(a=a, c=c, b=b, delta=delta)

    def test_from_m_matrix_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            MInverseParams.from_m_matrix(np.array([[1.0, 0.3], [0.1, 1.0]]))

    @pytest.mark.parametrize("gap, ok", [(1e-5, True), (1e-7, False)])
    def test_from_m_matrix_rejects_a_cancelled_determinant(self, gap, ok):
        # det = 2 gap - gap^2 against m00 m11 = 1: eps / det crosses the 1e-10
        # bound at gap = 1.1e-6
        m = np.array([[1.0, 1.0 - gap], [1.0 - gap, 1.0]])
        if ok:
            MInverseParams.from_m_matrix(m)
        else:
            with pytest.raises(ValueError, match="cancellation"):
                MInverseParams.from_m_matrix(m)

    @pytest.mark.parametrize("shape", [(3, 3), (2,), (1, 2), (2, 2, 1)])
    def test_from_m_matrix_rejects_a_misshapen_matrix(self, shape):
        with pytest.raises(ValueError, match="^smearing matrix must be 2x2$"):
            MInverseParams.from_m_matrix(np.ones(shape))

    def test_from_m_matrix_rejects_singular(self):
        with pytest.raises(ValueError, match="positive definite"):
            MInverseParams.from_m_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestEnsembleVelocity:
    def test_symmetric_distribution_gives_zero(self, natural_system):
        grid = GridSpec(
            x=np.linspace(-8.0, 8.0, 161), p=np.linspace(-8.0, 8.0, 161)
        )
        field = eigenstate_field(2, grid, natural_system)
        for x in (0.0, 0.5, 1.5):
            assert abs(ensemble_velocity(field, natural_system, x)) < 1e-9

    def test_boosted_gaussian_gives_drift_momentum(self, natural_system):
        x0, p0 = 0.4, 1.3
        grid = GridSpec(
            x=np.linspace(-7.6, 8.4, 401), p=np.linspace(-8.0, 10.0, 451)
        )
        xx = grid.x[:, None] - x0
        pp = grid.p[None, :] - p0
        values = np.exp(-(xx**2) - pp**2) / np.pi
        field = WignerField(x_grid=grid.x, p_grid=grid.p, values=values)
        assert ensemble_velocity(field, natural_system, x0) == pytest.approx(
            p0, abs=1e-8
        )

    def test_matches_wavefunction_route_at_start(self, canonical_cl_run):
        run = canonical_cl_run
        for i in bulk_columns(run):
            ve = ensemble_velocity(run.field0, run.system, run.grid.x[i])
            vb = initial_velocity(run.psi, run.grid.x[i], run.system)
            assert ve == pytest.approx(vb, abs=1e-6)

    def test_node_region_is_undefined(self, natural_system):
        grid = GridSpec(
            x=np.linspace(-10.0, 10.0, 201), p=np.linspace(-8.0, 8.0, 161)
        )
        field = eigenstate_field(1, grid, natural_system)
        with pytest.raises(UndefinedVelocityError, match="node"):
            ensemble_velocity(field, natural_system, 9.0)

    def test_density_floor_is_pinned(self, natural_system):
        # the ground state's density exp(-x^2) / sqrt(pi) falls to 9.6e-14 of
        # its peak at x = 5.475, a column a 1e-15 floor would let through;
        # at x = 5, 1.4e-11 of the peak, a 1e-10 floor would reject it
        grid = GridSpec(x=np.linspace(-7.0, 7.0, 561), p=np.linspace(-7.0, 7.0, 281))
        field = eigenstate_field(0, grid, natural_system)
        with pytest.raises(UndefinedVelocityError, match="node"):
            ensemble_velocity(field, natural_system, 5.475)
        assert abs(ensemble_velocity(field, natural_system, 5.0)) < 1e-9

    def test_off_grid_position_rejected(self, natural_system):
        grid = GridSpec(
            x=np.linspace(-5.0, 5.0, 101), p=np.linspace(-5.0, 5.0, 101)
        )
        field = eigenstate_field(0, grid, natural_system)
        with pytest.raises(GridCoverageError):
            ensemble_velocity(field, natural_system, 6.0)

    def test_midpoints_read_a_neighbouring_column(self, natural_system):
        # At x ~ 1e7 a midpoint's offset from the first column rounds to
        # about 1e-9 of a step past half a step; it is read at one of its two
        # columns, while a check of |x - x_j| <= dx/2 (1 + 1e-9) rejected 20
        # of these 100 midpoints.
        columns = np.arange(-50, 51)
        x = 1e7 + 0.1 * columns
        p = np.linspace(-20.0, 20.0, 401)
        field = WignerField(x, p, np.exp(-((p[None, :] - 0.1 * columns[:, None]) ** 2)))
        on_column = ensemble_velocity(field, natural_system, x)
        midway = ensemble_velocity(field, natural_system, 0.5 * (x[:-1] + x[1:]))
        assert np.all((midway == on_column[:-1]) | (midway == on_column[1:]))

    @pytest.mark.parametrize("x", [-1e300, 1e300])
    def test_far_position_rejected_before_index_cast(self, natural_system, x):
        # a grid index this large does not fit an int
        grid = GridSpec(
            x=np.linspace(-5.0, 5.0, 101), p=np.linspace(-5.0, 5.0, 101)
        )
        field = eigenstate_field(0, grid, natural_system)
        with pytest.raises(GridCoverageError):
            ensemble_velocity(field, natural_system, x)

    @non_finite
    def test_non_finite_position_rejected(self, natural_system, bad):
        grid = GridSpec(
            x=np.linspace(-5.0, 5.0, 101), p=np.linspace(-5.0, 5.0, 101)
        )
        field = eigenstate_field(0, grid, natural_system)
        with pytest.raises(ValueError, match="x has non-finite"):
            ensemble_velocity(field, natural_system, np.array([0.0, bad]))


class TestInitialVelocity:
    def test_real_wavefunction_has_zero_velocity(self, natural_system):
        psi = band_wavefunction(build_energy_band_state(0, 0), natural_system)
        assert abs(initial_velocity(psi, 0.7, natural_system)) < 1e-13

    def test_plane_wave_phase_gives_group_velocity(self, natural_system):
        k = 2.7

        def sampler(x):
            return np.exp(1j * k * x) * np.exp(-(x**2) / 50.0)

        assert initial_velocity(sampler, 1.1, natural_system) == pytest.approx(
            k, abs=1e-6
        )

    def test_band_velocity_escapes_classical_range(self, canonical_cl_run):
        # the ensemble velocity of a freshly prepared coherent band
        # overshoots the classical band: |v| > p_cl/m somewhere
        run = canonical_cl_run
        xs = np.arange(-0.8, 0.8, 0.002) * run.orbit.amplitude
        density = np.abs(run.psi(xs)) ** 2
        alive = density > 1e-6 * density.max()
        ratios = []
        for x in xs[alive][::7]:
            v = initial_velocity(run.psi, float(x), run.system)
            ratios.append(
                abs(v) / (run.orbit.classical_momentum(x) / run.system.mass)
            )
        assert max(ratios) > 1.0

    def test_node_is_undefined(self, natural_system):
        psi = band_wavefunction(build_energy_band_state(1, 0), natural_system)
        with pytest.raises(UndefinedVelocityError):
            initial_velocity(psi, 0.0, natural_system)

    def test_point_does_not_depend_on_the_others(self, natural_system):
        # |psi|^2 at x = 8 is 9e-22 of the band's peak, yet no node: beside
        # x = 0.5 it once fell below a floor set by the largest density among
        # the requested points and raised, while alone it read -0.02498
        psi = band_wavefunction(build_energy_band_state(3, 2), natural_system)
        xs = np.array([8.0, 0.5])
        both = initial_velocity(psi, xs, natural_system)
        alone = [initial_velocity(psi, x, natural_system) for x in xs]
        # the sampler rounds a batch and a single point differently
        assert both == pytest.approx(alone, rel=1e-12)
        # the closed-form derivative of the Hermite functions gives
        # -0.0249848 at x = 8; the stencil reads it to 5e-6
        assert alone[0] == pytest.approx(-0.0249848, rel=1e-4)

    @pytest.mark.parametrize("level, width, x", [(50, 8, 0.5), (50, 8, 5.0), (3, 2, 8.0)])
    def test_steps_are_one_percent_of_the_lengths(self, natural_system, level, width, x):
        # The first pass steps one percent of the ground-state length (1
        # here), the second min(that, 1 / (100 k)) with k = m |v| / hbar from
        # the first pass: k is about 12 and 7 on the canonical band, and
        # 0.025 at x = 8 on band (3, 2), where the first step stays
        psi = band_wavefunction(build_energy_band_state(level, width), natural_system)
        offsets = []

        def recording(points):
            offsets.append(float(points[0] - x))
            return psi(points)

        v = initial_velocity(recording, x, natural_system)
        step = min(0.01, 0.01 / abs(v))
        np.testing.assert_allclose(offsets[1:5], [0.01, 0.02, -0.01, -0.02], rtol=1e-9)
        # the first pass reads k to its truncation error, about 1e-6 here
        np.testing.assert_allclose(offsets[5:], np.array([1, 2, -1, -2]) * step, rtol=1e-4)

    @pytest.mark.parametrize("x", [6.65182753e59, 1e300, -1.7e308])
    def test_far_tail_is_undefined(self, canonical_cl_run, x):
        # the band's sampler read NaN here once its Hermite recurrence
        # overflowed, and the velocity came back NaN with only a warning
        with pytest.raises(UndefinedVelocityError, match="node regions"):
            initial_velocity(canonical_cl_run.psi, x, canonical_cl_run.system)

    @non_finite
    def test_non_finite_position_rejected(self, natural_system, bad):
        psi = band_wavefunction(build_energy_band_state(0, 0), natural_system)
        with pytest.raises(ValueError, match="x has non-finite"):
            initial_velocity(psi, np.array([0.5, bad]), natural_system)


class TestClassicalBandMargin:
    def test_reference_points(self, canonical_cl_run):
        orbit = canonical_cl_run.orbit
        x = 0.3 * orbit.amplitude
        v_cl = orbit.classical_momentum(x) / canonical_cl_run.system.mass
        assert classical_band_margin(0.0, orbit, x) == pytest.approx(1.0)
        assert classical_band_margin(v_cl, orbit, x) == pytest.approx(
            0.0, abs=1e-12
        )
        assert classical_band_margin(2.0 * v_cl, orbit, x) == pytest.approx(-1.0)

    def test_outside_orbit_rejected(self, canonical_cl_run):
        orbit = canonical_cl_run.orbit
        with pytest.raises(DomainValidityError):
            classical_band_margin(0.0, orbit, orbit.amplitude)

    @non_finite
    @pytest.mark.parametrize("name", ["v", "x"])
    def test_non_finite_input_rejected(self, canonical_cl_run, bad, name):
        orbit = canonical_cl_run.orbit
        args = {"v": 0.0, "x": 0.3 * orbit.amplitude, name: bad}
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            classical_band_margin(args["v"], orbit, args["x"])


class TestTimescales:
    def test_smoothing_time_worked_value(self, canonical_cl_run):
        assert canonical_cl_run.report.t_c == pytest.approx(0.5296, abs=1e-4)

    def test_localization_time_worked_value(self, natural_system, canonical_cl_run):
        params = CaldeiraLeggettParams(
            damping_rate=0.01, thermal_energy=10.0, cutoff=1e3
        )
        report = timescales(natural_system, params, canonical_cl_run.orbit)
        assert report.t_loc == pytest.approx(np.sqrt(10.0), rel=1e-12)
        assert report.threshold_time == pytest.approx(
            (3.0 / 16.0) ** 0.25 * report.t_loc, rel=1e-12
        )

    def test_ratio_closed_form(self, natural_system, canonical_cl_run):
        # t_c/t_loc reduces to a power of the dimensionless combination
        # hbar gamma kT / E^2; exponent and constant follow from the two
        # definitions and were rederived independently of the report
        orbit = canonical_cl_run.orbit
        for gamma, kt in ((1e-4, 1e3), (0.01, 10.0), (0.03, 300.0)):
            params = CaldeiraLeggettParams(
                damping_rate=gamma, thermal_energy=kt, cutoff=1e3
            )
            report = timescales(natural_system, params, orbit)
            closed = (9.0 * gamma * kt / (16.0 * orbit.energy**2)) ** (1.0 / 6.0)
            assert report.ratio == pytest.approx(closed, rel=1e-10)
            assert report.ratio == pytest.approx(
                report.t_c / report.t_loc, rel=1e-12
            )

    def test_rate_and_diffusion_fields(self, natural_system, canonical_cl_run):
        params = CaldeiraLeggettParams(
            damping_rate=0.05, thermal_energy=1e3, cutoff=1e4
        )
        report = timescales(natural_system, params, canonical_cl_run.orbit)
        assert report.localization_rate == pytest.approx(100.0)
        assert report.diffusion == pytest.approx(100.0)

    def test_needs_the_orbits_system(self, canonical_cl_run):
        # a mass-2 oscillator on the mass-1 orbit read t_c 0.667, not 0.530
        run = canonical_cl_run
        with pytest.raises(ValueError, match="system differs from the orbit's"):
            timescales(OscillatorSystemSpec(mass=2.0), run.params, run.orbit)
        # an equal oscillator built apart is the same oscillator
        twin = OscillatorSystemSpec()
        assert twin is not run.orbit.system
        assert timescales(twin, run.params, run.orbit) == run.report
        # the orbit reads no bare frequency
        shifted = OscillatorSystemSpec(bare_frequency=0.5)
        assert timescales(shifted, run.params, run.orbit) == run.report

    def test_closed_system_rejected(self, natural_system, canonical_cl_run):
        params = CaldeiraLeggettParams(
            damping_rate=0.0, thermal_energy=1e3, cutoff=1e3
        )
        with pytest.raises(ValueError, match="dissipative"):
            timescales(natural_system, params, canonical_cl_run.orbit)


class TestValidityWindow:
    def test_report_reads_its_margins(self):
        margins = {"first": 3.0, "second": 12.0}
        report = ValidityReport(margins)
        assert report.passed and not report.strict_passed
        with pytest.raises(TypeError):
            report.margins["first"] = 20.0
        assert not ValidityReport({"first": float("nan")}).passed

    @pytest.mark.parametrize("margin, strict", [(9.99, False), (10.0, True)])
    def test_strict_reading_is_a_factor_of_ten(self, margin, strict):
        report = ValidityReport({"first": 20.0, "second": margin})
        assert report.passed and report.strict_passed is strict

    def test_vanishing_spread_passes_easily(self, natural_system, canonical_cl_run):
        minv = MInverseParams(a=100.0, c=0.0, b=1e-12, delta=1e-10)
        report = validity_window(minv, canonical_cl_run.orbit, natural_system)
        assert report.passed and report.strict_passed
        assert all(m > 1e3 for m in report.margins.values())

    def test_canonical_run_passes_at_five_t_c(self, canonical_cl_run):
        run = canonical_cl_run
        minv = MInverseParams.from_m_matrix(run.prop_five.m)
        report = validity_window(
            minv, run.orbit, run.system, cl_params=run.params, time=run.t_five
        )
        assert report.passed
        assert report.margins["position_spread"] == pytest.approx(7.399, rel=5e-3)
        assert report.margins["chord_spread"] == pytest.approx(1.047, rel=5e-3)
        assert report.margins["cl_lower_time"] == pytest.approx(1.077, rel=5e-3)
        assert report.margins["cl_upper_time"] == pytest.approx(1.555, rel=5e-3)
        # under the factor-ten reading of the asymptotic inequalities this
        # regime sits inside the window but not deep inside it
        assert not report.strict_passed

    def test_needs_the_orbits_system(self, canonical_cl_run):
        # a mass-2 oscillator on the mass-1 orbit halved both spread margins
        # (7.40 -> 3.70, 1.047 -> 0.524) and failed the window; the spread
        # margins alone need no time, so no timescale is read
        run = canonical_cl_run
        minv = MInverseParams.from_m_matrix(run.prop_five.m)
        with pytest.raises(ValueError, match="system differs from the orbit's"):
            validity_window(minv, run.orbit, OscillatorSystemSpec(mass=2.0))
        twin = OscillatorSystemSpec()
        assert twin is not run.orbit.system
        report = validity_window(minv, run.orbit, twin, cl_params=run.params, time=run.t_five)
        expected = validity_window(
            minv, run.orbit, run.system, cl_params=run.params, time=run.t_five
        )
        assert dict(report.margins) == dict(expected.margins)
        # the orbit reads no bare frequency
        shifted = OscillatorSystemSpec(bare_frequency=0.5)
        report = validity_window(minv, run.orbit, shifted, cl_params=run.params, time=run.t_five)
        assert dict(report.margins) == dict(expected.margins)

    def test_early_time_fails_lower_bound(self, canonical_cl_run):
        run = canonical_cl_run
        coeffs = assemble_cl_coefficients(run.system, run.params)
        prop = integrate_propagator(coeffs, 0.5 * run.report.t_c)
        minv = MInverseParams.from_m_matrix(prop.m)
        report = validity_window(
            minv, run.orbit, run.system, cl_params=run.params,
            time=0.5 * run.report.t_c,
        )
        assert not report.passed
        assert report.margins["cl_lower_time"] < 1.0

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["validity_window", "semiclassical_decomposition"])
    def test_rejects_nonfinite_time(self, canonical_cl_run, entry, time):
        run = canonical_cl_run
        minv = MInverseParams.from_m_matrix(run.prop_five.m)
        wkb = wkb_amplitudes(run.state, run.orbit, run.system)
        calls = {
            "validity_window": lambda: validity_window(
                minv, run.orbit, run.system, cl_params=run.params, time=time
            ),
            "semiclassical_decomposition": lambda: semiclassical_decomposition(
                minv, run.orbit, wkb, 0.0, cl_params=run.params, time=time
            ),
        }
        with pytest.raises(ValueError, match=f"time = {time:g} is not finite"):
            calls[entry]()

    def test_time_window_needs_both_arguments(self, natural_system,
                                              canonical_cl_run):
        minv = MInverseParams(a=1.0, c=0.0, b=1.0, delta=1.0)
        with pytest.raises(ValueError, match="cl_params"):
            validity_window(
                minv, canonical_cl_run.orbit, natural_system,
                cl_params=canonical_cl_run.params,
            )


@pytest.fixture(scope="module")
def apex_decomposition(canonical_cl_run):
    minv = MInverseParams(a=2.0, c=0.0, b=0.5, delta=1.0)
    wkb = wkb_amplitudes(
        canonical_cl_run.state, canonical_cl_run.orbit, canonical_cl_run.system
    )
    return SemiclassicalDecomposition(
        minv=minv, orbit=canonical_cl_run.orbit, wkb=wkb
    )


@pytest.fixture(scope="module")
def smooth_reconstruction(canonical_cl_run):
    # a smooth-weighted band in the same window; the equal-weight band's
    # sharp-edged position density violates the slowly-varying-density
    # premise of the closed form at the ten-percent level
    run = canonical_cl_run
    offsets = np.arange(-4, 5)
    weights = np.exp(-(offsets**2) / 4.0)
    state = build_energy_band_state(50, 8, weights / np.linalg.norm(weights))
    field0 = wigner_transform(
        band_wavefunction(state, run.system), run.grid, run.system
    )
    t = 6.5 * run.report.t_c
    coeffs = assemble_cl_coefficients(run.system, run.params)
    prop = integrate_propagator(coeffs, t)
    evolved = propagate_wigner(prop, field0, run.system)
    return state, t, prop, evolved


class TestSemiclassicalDecomposition:
    def test_apex_limits(self, apex_decomposition):
        widths = apex_decomposition.widths(0.0)
        # at the orbit apex p_cl is stationary and the cross terms drop out
        assert widths.sigma_plus ** 2 == pytest.approx(0.5, rel=1e-12)
        assert widths.sigma_minus ** 2 == pytest.approx(0.5, rel=1e-12)
        assert widths.sigma_1 ** 2 == pytest.approx(0.5, rel=1e-12)
        assert widths.sigma_2 ** 2 == pytest.approx(0.5, rel=1e-12)
        assert widths.beta == pytest.approx(0.0, abs=1e-15)

    def test_float_terms_match_array_terms(self, apex_decomposition):
        # a Python float takes math's functions: the widths, square roots and
        # arithmetic alone, keep the array bits; the terms' logs may differ
        # from numpy's in the last bit, and a zero density reads -inf in both
        dec = SemiclassicalDecomposition(
            MInverseParams(a=2.0, c=0.3, b=0.5, delta=0.91),
            apex_decomposition.orbit, apex_decomposition.wkb,
        )
        xs = np.linspace(-0.95, 0.95, 39) * dec.orbit.amplitude
        rho = np.abs(np.stack(dec.wkb.amplitudes(xs))) ** 2
        rho[0, 5] = rho[1, 7] = 0.0
        widths = dec.widths(xs)
        terms = dec._terms(xs, *rho)
        for i, x in enumerate(xs.tolist()):
            assert _branch_widths(dec.minv, dec.orbit, x) == tuple(w[i] for w in widths)
            point = dec._terms(x, *rho[:, i].tolist())
            for row, values in zip(terms, point):
                for array, value in zip(row, values):
                    assert type(value) is float
                    assert value == pytest.approx(array[i], rel=1e-15, abs=1e-15)
        absent = dec._terms(xs.tolist()[5], *rho[:, 5].tolist())
        assert absent[0][0] == -np.inf == terms[0][0][5]

    def test_classical_part_nonnegative_and_confined(self, apex_decomposition):
        xs = np.linspace(-14.0, 14.0, 301)
        ps = np.linspace(-14.0, 14.0, 301)
        values = apex_decomposition.classical_part(xs, ps)
        assert values.min() >= 0.0
        outside = np.abs(xs) >= apex_decomposition.orbit.amplitude
        assert np.all(values[outside] == 0.0)

    def test_envelope_peak_identity(self, apex_decomposition):
        # on the ridge p = -beta p_cl the envelope reduces to its closed-form
        # prefactor times exp(-sigma_1^2 p_cl^2) sqrt(rho_+ rho_-)
        dec = apex_decomposition
        hbar = dec.orbit.system.hbar
        for x in (1.0, 2.5):
            p_cl = dec.orbit.classical_momentum(x)
            _, _, s1, s2, beta = (w[0] for w in dec.widths(x))
            ridge = np.array([-beta * p_cl])
            value = dec.oscillatory_envelope(np.array([x]), ridge)[0, 0]
            prefactor = np.sqrt(
                4.0 * hbar * s1 * s2 * np.sqrt(dec.minv.delta) / np.pi
            )
            expected = (
                prefactor
                * np.exp(-((s1 * p_cl) ** 2))
                * np.abs(np.prod(dec.wkb.amplitudes(x)))
            )
            assert value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("method", ["widths", "gaussian_terms"])
    @pytest.mark.parametrize(
        "position, error",
        [
            (1.0, DomainValidityError),
            (-1.0, DomainValidityError),
            (1.2, DomainValidityError),
            (np.nan, ValueError),
            (np.inf, ValueError),
        ],
    )
    def test_positions_off_the_orbit_interior_are_rejected(
        self, apex_decomposition, method, position, error
    ):
        dec = apex_decomposition
        x = np.array([0.3, position]) * dec.orbit.amplitude
        with pytest.raises(error):
            getattr(dec, method)(x)

    def test_out_of_validity_is_rejected(self, canonical_cl_run):
        run = canonical_cl_run
        coeffs = assemble_cl_coefficients(run.system, run.params)
        t_early = 0.5 * run.report.t_c
        prop = integrate_propagator(coeffs, t_early)
        minv = MInverseParams.from_m_matrix(prop.m)
        wkb = wkb_amplitudes(run.state, run.orbit, run.system)
        with pytest.raises(DomainValidityError, match="cl_lower_time"):
            semiclassical_decomposition(
                minv, run.orbit, wkb, 0.0, cl_params=run.params, time=t_early
            )

    def test_failing_margins_are_named_with_their_values(self, canonical_cl_run):
        # the error lists each margin below 1 as "name = value", as
        # conditional_velocity's does
        run = canonical_cl_run
        coeffs = assemble_cl_coefficients(run.system, run.params)
        t_early = 0.5 * run.report.t_c
        minv = MInverseParams.from_m_matrix(integrate_propagator(coeffs, t_early).m)
        wkb = wkb_amplitudes(run.state, run.orbit, run.system)
        margins = validity_window(
            minv, run.orbit, run.system, cl_params=run.params, time=t_early
        ).margins
        failing = ", ".join(f"{k} = {v:.3g}" for k, v in margins.items() if v < 1.0)
        assert failing
        with pytest.raises(DomainValidityError) as caught:
            semiclassical_decomposition(
                minv, run.orbit, wkb, 0.0, cl_params=run.params, time=t_early
            )
        assert str(caught.value).endswith(f"margins below 1: {failing}")

    def test_velocity_limit_formula(self, canonical_cl_run):
        # with the oscillatory part dropped, the mean velocity collapses to
        # the branch-weighted classical velocity
        run = canonical_cl_run
        minv = MInverseParams.from_m_matrix(
            run.prop_five.a @ run.prop_five.m @ run.prop_five.a.T
        )
        angle = run.system.renormalized_frequency * run.t_five
        dec = SemiclassicalDecomposition(
            minv=minv, orbit=run.orbit,
            wkb=wkb_amplitudes(
                rotated_band(run.state, angle), run.orbit, run.system
            ),
        )
        values = dec.classical_part(run.grid.x, run.grid.p)
        field = WignerField(x_grid=run.grid.x, p_grid=run.grid.p, values=values)
        marginal = values.sum(axis=1)
        floor = 1e-3 * marginal.max()
        checked = 0
        for i in range(0, len(run.grid.x), 17):
            x = run.grid.x[i]
            if abs(x) > 0.8 * run.orbit.amplitude or marginal[i] < floor:
                continue
            v = ensemble_velocity(field, run.system, x)
            rho_p, rho_m = np.abs(np.concatenate(dec.wkb.amplitudes(x))) ** 2
            v_cl = run.orbit.classical_momentum(x) / run.system.mass
            expected = v_cl * (rho_p - rho_m) / (rho_p + rho_m)
            assert v == pytest.approx(expected, abs=0.01 * v_cl)
            checked += 1
        assert checked > 20

    def test_insufficiency_of_position_decoherence(self, canonical_cl_run):
        # suppressing position-basis coherences acts on W as a
        # momentum-direction convolution with a symmetric kernel, which
        # leaves every column's mean velocity unchanged: the out-of-band
        # velocities survive pure position decoherence
        run = canonical_cl_run
        rate = run.params.localization_rate(run.system)
        t_deph = 4.0 / rate
        sigma_p = run.system.hbar * np.sqrt(2.0 * rate * t_deph)
        # pad the momentum axis so the smeared tails stay on-grid
        wide = widen_momentum_axis(run.field0, 40.0)
        dp = wide.dp
        half = int(8 * sigma_p / dp)
        taps = np.arange(-half, half + 1)
        kernel = np.exp(-0.5 * (taps * dp / sigma_p) ** 2)
        kernel /= kernel.sum()
        dephased = WignerField(
            x_grid=wide.x_grid,
            p_grid=wide.p_grid,
            values=ndimage.convolve1d(
                wide.values, kernel, axis=1, mode="constant"
            ),
        )
        margins = []
        for i in bulk_columns(run, limit=40):
            x = run.grid.x[i]
            before = ensemble_velocity(wide, run.system, x)
            after = ensemble_velocity(dephased, run.system, x)
            assert after == pytest.approx(before, abs=1e-6)
            margins.append(classical_band_margin(before, run.orbit, x))
        assert min(margins) < -0.05

    def test_band_margins_restored_at_five_t_c(self, canonical_cl_run):
        run = canonical_cl_run
        marginal = run.field_five.values.sum(axis=1)
        floor = 1e-6 * marginal.max()
        margins = []
        for i in range(0, len(run.grid.x), 5):
            x = run.grid.x[i]
            if abs(x) > 0.8 * run.orbit.amplitude or marginal[i] < floor:
                continue
            v = ensemble_velocity(run.field_five, run.system, x)
            margins.append(classical_band_margin(v, run.orbit, x))
        assert len(margins) > 100
        assert min(margins) >= -0.05

    def test_growth_of_suppression_exponent(self, canonical_cl_run):
        # the suppression exponent sigma_1^2 p_cl^2 grows like the pure
        # diffusion cube D t^3 p_cl^2 / (3 m^2 hbar^2) moderated by the
        # chord-tilt factor 1 + (2 D t^3 p' / (3 m^2 hbar))^2
        run = canonical_cl_run
        x = 0.3 * run.orbit.amplitude
        p_cl = run.orbit.classical_momentum(x)
        p_prime = run.orbit.classical_momentum_derivative(x)
        diffusion = run.report.diffusion
        coeffs = assemble_cl_coefficients(run.system, run.params)
        wkb = wkb_amplitudes(run.state, run.orbit, run.system)
        upper = run.report.t_c * (
            run.orbit.amplitude / run.orbit.de_broglie
        ) ** (4.0 / 9.0) / 2.0
        previous = -np.inf
        for t in np.linspace(0.5 * run.report.t_c, upper, 9):
            prop = integrate_propagator(coeffs, float(t))
            minv = MInverseParams.from_m_matrix(prop.m)
            dec = SemiclassicalDecomposition(
                minv=minv, orbit=run.orbit, wkb=wkb
            )
            exponent = float(dec.widths(x).sigma_1[0] * p_cl) ** 2
            assert exponent > previous
            previous = exponent
            cubic = diffusion * t**3 * p_cl**2 / 3.0
            tilt = 1.0 + (2.0 * diffusion * t**3 * p_prime / 3.0) ** 2
            assert 0.5 < exponent / (cubic / tilt) < 2.0

    def test_rapid_phase_cancellation(self, canonical_cl_run):
        # the interference term carries the fast phase 2S/hbar; integrating
        # the envelope against either quadrature of that phase cancels far
        # below the envelope's own mass
        run = canonical_cl_run
        minv = MInverseParams.from_m_matrix(
            run.prop_five.a @ run.prop_five.m @ run.prop_five.a.T
        )
        angle = run.system.renormalized_frequency * run.t_five
        dec = SemiclassicalDecomposition(
            minv=minv, orbit=run.orbit,
            wkb=wkb_amplitudes(
                rotated_band(run.state, angle), run.orbit, run.system
            ),
        )
        step = run.orbit.de_broglie / 32.0
        x_fine = np.arange(
            -0.95 * run.orbit.amplitude, 0.95 * run.orbit.amplitude, step
        )
        p_grid = np.linspace(-20.0, 20.0, 1401)
        column_mass = np.empty(len(x_fine))
        for lo in range(0, len(x_fine), 512):
            block = x_fine[lo : lo + 512]
            env = dec.oscillatory_envelope(block, p_grid)
            column_mass[lo : lo + len(block)] = trapz(env, p_grid, axis=1)
        phase = 2.0 * run.orbit.action(x_fine) / run.system.hbar
        envelope_mass = trapz(column_mass, x_fine)
        cos_part = trapz(column_mass * np.cos(phase), x_fine)
        sin_part = trapz(column_mass * np.sin(phase), x_fine)
        assert envelope_mass > 1e-3
        assert abs(cos_part) < 1e-3
        assert abs(sin_part) < 1e-3

    def test_reconstruction_matches_propagated_field(
        self, canonical_cl_run, smooth_reconstruction
    ):
        run = canonical_cl_run
        state, t, prop, evolved = smooth_reconstruction
        minv = MInverseParams.from_m_matrix(prop.a @ prop.m @ prop.a.T)
        angle = run.system.renormalized_frequency * t
        dec = semiclassical_decomposition(
            minv, run.orbit,
            wkb_amplitudes(rotated_band(state, angle), run.orbit, run.system),
            x=0.0, cl_params=run.params, time=t,
        )
        model = dec.classical_part(run.grid.x, run.grid.p)
        mask = np.abs(run.grid.x) <= 0.8 * run.orbit.amplitude
        peak = evolved.values[mask].max()
        worst = np.abs(model[mask] - evolved.values[mask]).max()
        assert worst <= 0.05 * peak
        envelope = dec.oscillatory_envelope(
            run.grid.x[mask][::16], run.grid.p[::16]
        )
        assert envelope.max() <= 1e-4 * peak
