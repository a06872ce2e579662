"""Band states, exact eigenfunctions, WKB amplitudes, Wigner transforms."""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest
from scipy import fft as sp_fft
from scipy import ndimage, special

from bohmdec import _parallel
from bohmdec.errors import DomainValidityError, GridCoverageError
from bohmdec.phase_space import (
    EnergyBandState,
    GridSpec,
    OscillatorSystemSpec,
    WignerField,
    band_wavefunction,
    build_energy_band_state,
    classical_orbit,
    density_matrix_from_wigner,
    eigenfunction_table,
    exact_oscillator_wigner,
    wigner_transform,
    wkb_amplitudes,
    wkb_wavefunction,
)
from conftest import (
    brute_force_wigner,
    local_average,
    momentum_wavefunction,
    traced_peak,
    trapz,
)


def _wide_grid(orbit, pad=7.0, x_step=None, p_step=None):
    """Grid with enough room for quantum tails of low-lying levels."""
    span = 1.0 + pad / orbit.amplitude
    return GridSpec.for_orbit(orbit, x_span=span, p_span=span,
                              x_step=x_step, p_step=p_step)


class TestSystemSpec:
    def test_defaults_are_natural_units(self):
        s = OscillatorSystemSpec()
        assert s.mass == s.bare_frequency == s.renormalized_frequency == s.hbar == 1.0

    @pytest.mark.parametrize("field", [
        "mass", "bare_frequency", "renormalized_frequency", "hbar",
    ])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            OscillatorSystemSpec(**{field: 0.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match=rf"^OscillatorSystemSpec\.hbar = {bad:g} is not finite$"):
            OscillatorSystemSpec(hbar=bad)


class TestEnergyBandState:
    def test_pure_level(self):
        st = build_energy_band_state(50, 0)
        assert st.coefficients.shape == (1,)
        assert st.coefficients[0] == pytest.approx(1.0)
        assert st.semiclassical_ok

    def test_equal_band_default(self):
        st = build_energy_band_state(50, 4)
        assert np.allclose(np.abs(st.coefficients), 1.0 / np.sqrt(5.0))
        assert list(st.offsets) == [-2, -1, 0, 1, 2]
        assert list(st.levels) == [48, 49, 50, 51, 52]

    @pytest.mark.parametrize("excess, valid", [(4e-13, True), (4e-12, False)])
    def test_normalization_is_held_to_1e_12(self, excess, valid):
        coefficients = np.sqrt((1.0 + excess) / 3.0) * np.ones(3)
        if valid:
            build_energy_band_state(5, 2, coefficients)
        else:
            with pytest.raises(ValueError, match="normalized"):
                build_energy_band_state(5, 2, coefficients)

    @pytest.mark.parametrize("level, ok", [(40, True), (39, False)])
    def test_narrow_band_needs_ten_levels_per_width(self, level, ok):
        assert build_energy_band_state(level, 4).semiclassical_ok is ok

    def test_narrow_band_flag(self):
        assert build_energy_band_state(50, 4).semiclassical_ok
        assert not build_energy_band_state(5, 4).semiclassical_ok
        assert not build_energy_band_state(9, 0).semiclassical_ok

    @pytest.mark.parametrize(
        "levels", [(10.7, 2), (10, 2.5), (np.nan, 2), (np.inf, 0), (True, 0), (10, np.True_)]
    )
    def test_rejects_non_integer_levels(self, levels):
        with pytest.raises(ValueError, match="integer"):
            build_energy_band_state(*levels)

    @pytest.mark.parametrize("levels", [(50.5, 2), (50, 2.5), (True, 0)])
    def test_constructor_rejects_non_integer_levels(self, levels):
        # rejected when the state is built, not later by band_wavefunction
        mean_level, band_width = levels
        with pytest.raises(ValueError, match="integer"):
            EnergyBandState(
                mean_level=mean_level, band_width=band_width,
                coefficients=np.ones(3) / np.sqrt(3),
            )

    @pytest.mark.parametrize("make", ["function", "constructor"])
    @pytest.mark.parametrize(
        "mean_level, message",
        [
            (10**400, "^mean_level is beyond the float range$"),
            (1e300, r"^EnergyBandState\.mean_level \+ band_width/2 must fit in int64"),
            (2**63 - 1, r"^EnergyBandState\.mean_level \+ band_width/2 must fit in int64"),
        ],
        ids=["beyond-float", "beyond-int64", "top-one-past-int64"],
    )
    def test_rejects_levels_beyond_int64(self, make, mean_level, message):
        # .levels is an int64 array, so a band whose top level overflows it
        # is named when it is built, not raised later as OverflowError
        with pytest.raises(ValueError, match=message):
            if make == "function":
                build_energy_band_state(mean_level, 2)
            else:
                EnergyBandState(mean_level=mean_level, band_width=2,
                                coefficients=np.ones(3) / np.sqrt(3))

    def test_top_level_at_the_int64_limit_is_kept(self):
        top = np.iinfo(np.int64).max
        assert build_energy_band_state(top - 1, 2).levels[-1] == top

    def test_constructor_stores_integer_levels(self):
        st = EnergyBandState(mean_level=50.0, band_width=np.int64(2),
                             coefficients=np.ones(3) / np.sqrt(3))
        assert type(st.mean_level) is int and type(st.band_width) is int
        assert (st.mean_level, st.band_width) == (50, 2)

    def test_rejects_odd_band_width(self):
        with pytest.raises(ValueError, match="even"):
            build_energy_band_state(50, 3)

    def test_rejects_band_below_ground(self):
        with pytest.raises(ValueError, match="negative"):
            build_energy_band_state(1, 4)

    @pytest.mark.parametrize(
        "coefficients", [[0.5, 0.5, 0.5], [np.nan, 1.0, 1.0], [np.inf, 0.0, 0.0]]
    )
    def test_rejects_unnormalized_coefficients(self, coefficients):
        with pytest.raises(ValueError, match="normalized"):
            build_energy_band_state(50, 2, coefficients)

    def test_rejects_wrong_coefficient_count(self):
        with pytest.raises(ValueError, match="coefficients"):
            build_energy_band_state(50, 4, [1.0, 0.0])

    def test_equality_compares_levels_and_coefficients(self):
        # the generated == raised "truth value of an array is ambiguous"
        # for two states of the same width
        state = build_energy_band_state(50, 2)
        assert state == build_energy_band_state(50, 2)
        assert state != build_energy_band_state(52, 2)
        assert state != build_energy_band_state(50, 4)
        assert state != build_energy_band_state(50, 2, [0.6, 0.8, 0.0])
        assert state != build_energy_band_state(50, 2, -state.coefficients)
        assert state != (50, 2, state.coefficients)


class TestClassicalOrbit:
    def test_mean_level_50_values(self, natural_system):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        assert orb.energy == pytest.approx(50.5)
        assert orb.amplitude == pytest.approx(np.sqrt(101.0), rel=1e-14)
        assert orb.de_broglie == pytest.approx(1.0 / np.sqrt(101.0), rel=1e-14)

    def test_action_derivative_is_momentum(self, natural_system):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        xs = np.linspace(-0.9, 0.9, 7) * orb.amplitude
        h = 1e-6
        num = (orb.action(xs + h) - orb.action(xs - h)) / (2.0 * h)
        assert np.allclose(num, orb.classical_momentum(xs), rtol=1e-7)

    def test_action_reference_value_at_left_turning_point(self, natural_system):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        assert orb.action(-orb.amplitude) == pytest.approx(np.pi / 4.0, rel=1e-14)

    def test_momentum_derivatives(self, natural_system):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        xs = np.linspace(-0.8, 0.8, 5) * orb.amplitude
        h = 1e-5
        d1 = (orb.classical_momentum(xs + h) - orb.classical_momentum(xs - h)) / (2 * h)
        assert np.allclose(d1, orb.classical_momentum_derivative(xs), rtol=1e-6)

    def test_momentum_vanishes_outside(self, natural_system):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        assert orb.classical_momentum(1.5 * orb.amplitude) == 0.0

    def test_derived_scales_follow_energy_and_system(self):
        # amplitude and de_broglie are derived from the two fields, so two
        # orbits with the same fields agree and a replaced energy moves both
        system = OscillatorSystemSpec(mass=2.0, renormalized_frequency=3.0, hbar=0.5)
        orb = classical_orbit(build_energy_band_state(20, 0), system)
        assert [f.name for f in dataclasses.fields(orb)] == ["energy", "system"]
        assert orb.amplitude == float(np.sqrt(2.0 * orb.energy / (2.0 * 9.0)))
        assert orb.de_broglie == 0.5 / (2.0 * 3.0 * orb.amplitude)
        wider = dataclasses.replace(orb, energy=4.0 * orb.energy)
        assert wider.amplitude == pytest.approx(2.0 * orb.amplitude, rel=1e-15)
        assert wider.de_broglie == pytest.approx(0.5 * orb.de_broglie, rel=1e-15)


class TestEigenfunctions:
    def test_ground_state_peak(self, natural_system):
        val = eigenfunction_table([0], np.array([0.0]), natural_system)[0][0]
        assert val == pytest.approx(np.pi**-0.25, rel=1e-14)

    def test_first_excited_node(self, natural_system):
        assert eigenfunction_table([1], np.array([0.0]), natural_system)[0][0] == 0.0

    def test_level_50_normalization(self, natural_system):
        xs = np.linspace(-16.0, 16.0, 40001)
        dens = eigenfunction_table([50], xs, natural_system)[0] ** 2
        assert trapz(dens, xs) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self, natural_system):
        xs = np.linspace(-16.0, 16.0, 40001)
        a = eigenfunction_table([50], xs, natural_system)[0]
        b = eigenfunction_table([49], xs, natural_system)[0]
        assert abs(trapz(a * b, xs)) < 1e-8

    def test_very_high_level_stays_finite(self, natural_system):
        vals = eigenfunction_table([20000], np.array([0.0, 50.0, 190.0]), natural_system)[0]
        assert np.all(np.isfinite(vals))
        assert abs(vals[0]) > 1e-3
        # far outside the classical region the value must underflow to ~0
        tail = eigenfunction_table([20000], np.array([250.0]), natural_system)[0]
        assert abs(tail[0]) < 1e-100

    @pytest.mark.parametrize("mass", [1.0, 1e6, 1e20])
    def test_levels_stay_finite_at_every_finite_position(self, mass):
        # A step grows a mantissa by up to sqrt(2)|xi| + 1, so a fixed rescale
        # threshold of 1e250 let the recurrence overflow once |xi| > 1e58: the
        # canonical band read NaN from x = 6.7e59 on. A heavy oscillator's
        # sqrt(alpha) prefactor must fit under the bound too. Far out every
        # level is 0.
        far = np.concatenate([np.logspace(1.0, 300.0, 61), [1.7e308, np.finfo(float).max]])
        x = np.concatenate([-far, [0.0], far])
        table = eigenfunction_table(np.arange(5001), x, OscillatorSystemSpec(mass=mass))
        assert np.all(np.isfinite(table))
        assert not table[:, np.abs(x) > 200.0].any()

    def test_points_below_every_subnormal_skip_the_recurrence(self, natural_system, monkeypatch):
        # At |x| >= 1e3 the growth bound (sqrt(2) (1 + |xi|))^5000 exp(-xi^2/2)
        # is below the smallest subnormal, so no point there is ever rescaled
        seen = []
        frexp = np.frexp

        def counting(values, *args, **kwargs):
            seen.append(np.size(values))
            return frexp(values, *args, **kwargs)

        monkeypatch.setattr(np, "frexp", counting)
        far = np.logspace(3.0, 300.0, 10000)
        table = eigenfunction_table([5000], np.concatenate([-far, far]), natural_system)
        assert sum(seen) == 0
        assert not table.any()

    def test_ground_state_keeps_its_subnormal_tail(self, natural_system):
        # The ground state meets the growth bound, and where its Gaussian
        # rounds to a subnormal it must still be computed: the skip takes only
        # points whose bound is below a quarter of the smallest subnormal
        x = np.linspace(37.5, 38.9, 1401)
        with np.errstate(under="ignore"):
            expected = np.pi**-0.25 * np.exp(-0.5 * x**2)
        assert expected[-1] == 0.0 and expected[expected > 0.0].min() == 5e-324
        np.testing.assert_array_equal(eigenfunction_table([0], x, natural_system)[0], expected)

    def test_mass_scaling(self):
        heavy = OscillatorSystemSpec(mass=4.0)
        light = OscillatorSystemSpec(mass=1.0)
        # psi_m(x) = m^(1/4) psi_1(sqrt(m) x) for the ground state
        x = np.array([0.3, 0.7])
        lhs = eigenfunction_table([0], x, heavy)[0]
        rhs = 4.0**0.25 * eigenfunction_table([0], 2.0 * x, light)[0]
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_table_matches_single_level(self, natural_system):
        xs = np.linspace(-8.0, 8.0, 101)
        table = eigenfunction_table(np.array([48, 50, 52]), xs, natural_system)
        for row, n in zip(table, (48, 50, 52)):
            assert np.allclose(row, eigenfunction_table([n], xs, natural_system)[0])

    @pytest.mark.parametrize("level", [-1, 10.7, np.nan, np.inf])
    def test_rejects_invalid_level(self, natural_system, level):
        with pytest.raises(ValueError, match="non-negative integers"):
            eigenfunction_table([level], np.array([0.3]), natural_system)


class TestWkb:
    def test_requires_semiclassical_state(self, natural_system):
        st = build_energy_band_state(5, 4)
        orb = classical_orbit(st, natural_system)
        with pytest.raises(DomainValidityError, match="semiclassical"):
            wkb_wavefunction(st, orb, np.array([0.0]), natural_system)

    def test_turning_window_rejected(self, natural_system):
        st = build_energy_band_state(50, 0)
        orb = classical_orbit(st, natural_system)
        with pytest.raises(DomainValidityError, match="turning"):
            wkb_wavefunction(st, orb, np.array([0.96 * orb.amplitude]),
                             natural_system)

    def test_pure_level_branch_modulus(self, natural_system):
        st = build_energy_band_state(50, 0)
        orb = classical_orbit(st, natural_system)
        amp = wkb_amplitudes(st, orb, natural_system)
        x = np.array([2.0, -4.5])
        expected = np.sqrt(1.0 / (2.0 * np.pi * orb.classical_momentum(x)))
        g_plus, g_minus = amp.amplitudes(x)
        assert np.allclose(np.abs(g_plus), expected, rtol=1e-13)
        assert np.allclose(np.abs(g_minus), expected, rtol=1e-13)

    def test_amplitudes_need_the_orbits_system(self, natural_system):
        st = build_energy_band_state(50, 4)
        orb = classical_orbit(st, natural_system)
        assert wkb_amplitudes(st, orb, OscillatorSystemSpec()).orbit is orb
        with pytest.raises(ValueError, match="system differs from the orbit's"):
            wkb_amplitudes(st, orb, OscillatorSystemSpec(mass=2.0))
        # the orbit reads no bare frequency
        shifted = OscillatorSystemSpec(bare_frequency=0.5)
        assert wkb_amplitudes(st, orb, shifted).orbit is orb

    def test_float_points_match_array_points(self, natural_system):
        # a Python float takes math's functions: the momentum and its
        # derivative, square roots and arithmetic alone, keep the array bits
        # (NaN on and beyond the turning points included); arcsin and the
        # band sum may differ in the last bit, the sum's of the larger branch
        # when it cancels to a small one (3.8e-15 of the smaller measured)
        st = build_energy_band_state(50, 8)
        orb = classical_orbit(st, natural_system)
        amp = wkb_amplitudes(st, orb, natural_system)
        fractions = [-np.inf, -1.2, -1.0, -0.7, 0.0, 0.31, 0.99, 1.0, 1.5, np.nan]
        xs = np.array(fractions) * orb.amplitude
        momentum = orb.classical_momentum(xs)
        slope = orb.classical_momentum_derivative(xs)
        angle = orb.angle(xs)
        g_plus, g_minus = amp.amplitudes(xs)
        for i, x in enumerate(xs.tolist()):
            assert type(orb.classical_momentum(x)) is float
            np.testing.assert_array_equal(orb.classical_momentum(x), momentum[i])
            np.testing.assert_array_equal(orb.classical_momentum_derivative(x), slope[i])
            np.testing.assert_allclose(orb.angle(x), angle[i], rtol=2e-16, atol=0.0)
            plus, minus = amp.amplitudes(x)
            assert np.ndim(plus) == np.ndim(minus) == 0
            bound = 1e-15 * (abs(g_plus[i]) + abs(g_minus[i]))
            np.testing.assert_allclose([plus, minus], [g_plus[i], g_minus[i]], rtol=0.0, atol=bound)

    def test_amplitudes_vanish_outside_orbit(self, natural_system):
        st = build_energy_band_state(50, 4)
        orb = classical_orbit(st, natural_system)
        amp = wkb_amplitudes(st, orb, natural_system)
        x = np.array([-1.2 * orb.amplitude, 1.01 * orb.amplitude])
        g_plus, g_minus = amp.amplitudes(x)
        assert np.all(g_plus == 0.0)
        assert np.all(g_minus == 0.0)

    @pytest.mark.parametrize("band_width", [0, 8])
    def test_branch_density_normalization(self, natural_system, band_width):
        st = build_energy_band_state(50, band_width)
        orb = classical_orbit(st, natural_system)
        amp = wkb_amplitudes(st, orb, natural_system)
        # integrate in the orbit angle to tame the turning-point singularity
        theta = np.linspace(-np.pi / 2, np.pi / 2, 20001)[1:-1]
        xs = orb.amplitude * np.sin(theta)
        jac = orb.amplitude * np.cos(theta)
        rho_plus, rho_minus = np.abs(np.stack(amp.amplitudes(xs))) ** 2
        total = trapz((rho_plus + rho_minus) * jac, theta)
        assert total == pytest.approx(1.0, abs=2e-2)

    def test_branch_orientation_matches_momentum_lobes(self, natural_system):
        # an equal-coefficient band concentrates at the orbit centre moving
        # in the negative-momentum direction, so nearly all Wigner mass sits
        # at p < 0 and must be attributed to the minus branch
        st = build_energy_band_state(12, 4)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)
        field = wigner_transform(band_wavefunction(st, natural_system), grid,
                                 natural_system)
        dp = grid.p[1] - grid.p[0]
        dx = grid.x[1] - grid.x[0]
        mass_neg = trapz(trapz(field.values[:, grid.p < 0], dx=dp), dx=dx)
        mass_pos = trapz(trapz(field.values[:, grid.p > 0], dx=dp), dx=dx)

        amp = wkb_amplitudes(st, orb, natural_system)
        theta = np.linspace(-np.pi / 2, np.pi / 2, 20001)[1:-1]
        xs = orb.amplitude * np.sin(theta)
        jac = orb.amplitude * np.cos(theta)
        rho_plus, rho_minus = np.abs(np.stack(amp.amplitudes(xs))) ** 2
        weight_plus = trapz(rho_plus * jac, theta)
        weight_minus = trapz(rho_minus * jac, theta)

        assert weight_minus > 2.0 * weight_plus
        assert mass_neg == pytest.approx(weight_minus, abs=0.05)
        assert mass_pos == pytest.approx(weight_plus, abs=0.05)

    @pytest.mark.parametrize("band_width", [0, 4])
    def test_wkb_matches_exact_wavefunction_pointwise(
        self, natural_system, band_width
    ):
        # amplitude and phase, not just the locally averaged density
        st = build_energy_band_state(50, band_width)
        orb = classical_orbit(st, natural_system)
        xs = np.linspace(-0.5, 0.5, 401) * orb.amplitude
        exact = band_wavefunction(st, natural_system)(xs)
        wkb = wkb_wavefunction(st, orb, xs, natural_system)
        envelope = 2.0 * np.sqrt(
            1.0 / (2.0 * np.pi * orb.classical_momentum(xs))
        )
        assert np.max(np.abs(wkb - exact) / envelope) < 0.1

    def test_wkb_matches_averaged_exact_density(self, natural_system):
        st = build_energy_band_state(50, 0)
        orb = classical_orbit(st, natural_system)
        exact = band_wavefunction(st, natural_system)
        xs = np.linspace(-0.8, 0.8, 33) * orb.amplitude
        avg_exact = local_average(exact, xs, orb.de_broglie)
        wkb = lambda pts: wkb_wavefunction(st, orb, pts, natural_system)
        avg_wkb = local_average(wkb, xs, orb.de_broglie)
        rel = np.abs(avg_wkb - avg_exact) / avg_exact
        assert rel.max() < 0.05

    def test_band_wavefunction_matches_eigenfunction_for_pure_level(
        self, natural_system
    ):
        st = build_energy_band_state(50, 0)
        xs = np.linspace(-9.0, 9.0, 401)
        psi = band_wavefunction(st, natural_system)(xs)
        assert np.allclose(psi, eigenfunction_table([50], xs, natural_system)[0])


def _build_axes(kind, x, p):
    if kind == "GridSpec":
        return GridSpec(x=x, p=p)
    # a zero-stride view: the n = 1000 grid would need 5 GB of real samples
    values = np.broadcast_to(0.0, (x.size, p.size))
    return WignerField(x_grid=x, p_grid=p, values=values)


class TestGridSpec:
    def test_default_spacings(self, natural_system):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        grid = GridSpec.for_orbit(orb)
        assert grid.dx <= orb.de_broglie / 4.0 + 1e-15
        assert grid.dp <= 1.0 / (4.0 * orb.amplitude) + 1e-15
        assert grid.x[0] == pytest.approx(-1.5 * orb.amplitude)
        assert grid.p[-1] == pytest.approx(3.0 * orb.amplitude)
        assert 0.0 in grid.x and 0.0 in grid.p

    @pytest.mark.parametrize("name", ["x_span", "p_span", "x_step", "p_step"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_for_orbit_rejects_bad_span_or_step(self, natural_system, name, value):
        orb = classical_orbit(build_energy_band_state(50, 0), natural_system)
        with pytest.raises(ValueError, match=name):
            GridSpec.for_orbit(orb, **{name: value})

    @pytest.mark.parametrize("kind", ["GridSpec", "WignerField"])
    def test_rejects_nonuniform_axis(self, kind):
        x, p = np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="uniform"):
            _build_axes(kind, x, p)

    @pytest.mark.parametrize("kind", ["GridSpec", "WignerField"])
    @pytest.mark.parametrize("name", ["x", "p"])
    @pytest.mark.parametrize("axis", [np.linspace(5.0, -5.0, 11), np.zeros(11)], ids=["descending", "constant"])
    def test_rejects_axis_that_does_not_increase(self, kind, name, axis):
        # a descending x-axis once failed in wigner_transform's reach probe, a
        # descending p-axis gave a negative density, and propagate_wigner a
        # broadcast error
        axes = {"x": np.linspace(-5.0, 5.0, 11), "p": np.linspace(-5.0, 5.0, 11)}
        axes[name] = axis
        label = f"GridSpec.{name}" if kind == "GridSpec" else f"WignerField.{name}_grid"
        with pytest.raises(ValueError, match=rf"^{label} must be increasing$"):
            _build_axes(kind, axes["x"], axes["p"])

    @pytest.mark.parametrize("kind", ["GridSpec", "WignerField"])
    @pytest.mark.parametrize("shift, uniform", [(3.0, True), (6.0, False)])
    def test_steps_may_scatter_by_four_eps(self, kind, shift, uniform):
        # moving one point by shift * eps max|axis| moves two steps by as much
        axis = np.arange(-50.0, 51.0)
        axis[80] += shift * np.finfo(float).eps * 50.0
        if uniform:
            _build_axes(kind, axis, axis)
        else:
            with pytest.raises(ValueError, match="uniform"):
                _build_axes(kind, axis, axis)

    @pytest.mark.parametrize("level", [600, 800, 1000])
    def test_large_orbit_grids_build(self, natural_system, level):
        orb = classical_orbit(build_energy_band_state(level, 0), natural_system)
        grid = GridSpec.for_orbit(orb, 1.3, 2.0)
        for axis, step in ((grid.x, grid.dx), (grid.p, grid.dp)):
            assert step == (axis[-1] - axis[0]) / (axis.size - 1)
        for kind in ("GridSpec", "WignerField"):
            _build_axes(kind, grid.x, grid.p)
            for name in ("x", "p"):
                axes = {"x": grid.x.copy(), "p": grid.p.copy()}
                axes[name][axes[name].size // 3] += 1e-9
                with pytest.raises(ValueError, match="uniform"):
                    _build_axes(kind, axes["x"], axes["p"])


class TestWignerTransform:
    def test_ground_state_gaussian(self, natural_system):
        st = build_energy_band_state(0, 0)
        orb = classical_orbit(st, natural_system)
        grid = _wide_grid(orb)
        field = wigner_transform(band_wavefunction(st, natural_system), grid,
                                 natural_system)
        exact = np.exp(-(grid.x[:, None] ** 2 + grid.p[None, :] ** 2)) / np.pi
        assert np.max(np.abs(field.values - exact)) < 1e-6

    def test_normalization_and_marginals(self, natural_system):
        st = build_energy_band_state(50, 4)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        assert field.normalization() == pytest.approx(1.0, abs=1e-6)
        marg = field.marginal_position()
        assert np.max(np.abs(marg - np.abs(psi(grid.x)) ** 2)) < 1e-6

    def test_momentum_marginal_against_fourier_oracle(self, natural_system):
        st = build_energy_band_state(30, 2)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        phi = momentum_wavefunction(psi, grid.p, natural_system, -14.0, 14.0)
        assert np.max(np.abs(field.marginal_momentum() - np.abs(phi) ** 2)) < 1e-6

    def test_matches_brute_force_at_spot_points(self, natural_system):
        st = build_energy_band_state(12, 2)
        orb = classical_orbit(st, natural_system)
        grid = _wide_grid(orb)
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        for ix, ip in ((len(grid.x) // 2, len(grid.p) // 2),
                       (len(grid.x) // 3, 2 * len(grid.p) // 3)):
            ref = brute_force_wigner(psi, float(grid.x[ix]), float(grid.p[ip]),
                                     natural_system, half_width=12.0)
            assert field.values[ix, ip] == pytest.approx(ref, abs=1e-8)

    def test_parity_exact_on_symmetric_grid(self, natural_system):
        st = build_energy_band_state(15, 0)
        orb = classical_orbit(st, natural_system)
        grid = _wide_grid(orb)
        field = wigner_transform(band_wavefunction(st, natural_system), grid,
                                 natural_system)
        flipped = field.values[::-1, ::-1]
        scale = np.max(np.abs(field.values))
        assert np.max(np.abs(field.values - flipped)) < 1e-13 * scale

    def test_samples_one_lattice(self, natural_system):
        # every point x_i +- y_j lies on one lattice, sampled in one call
        # after the support probe and the reach check
        st = build_energy_band_state(50, 8)
        grid = GridSpec.for_orbit(classical_orbit(st, natural_system))
        psi = band_wavefunction(st, natural_system)
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return psi(x)

        wigner_transform(counted, grid, natural_system)
        assert len(sizes) == 3
        assert sum(sizes) < 50_000

    @pytest.mark.parametrize(
        "p_lo, p_hi, n_p, boost",
        [
            (-2.3, 6.1, 400, 0.4),
            (26.0, 34.0, 401, 0.4),
            (-9.0, 1.0, 300, 0.4),
            # p0 = 40 sits past the grid's edge: its alias lands on the grid
            # unless the y-step is set by the measured reach p0 + 7.4
            (-25.0, 39.0, 257, 33.0),
            # p0 = 30: the grid sees only the tails, where |W| ~ 1e-16
            (-5.0, 5.0, 201, 30.0),
            # p0 = 300 lies beyond the first probe's band of +-62.8, which
            # aliases it: the reach is read after three halvings
            (280.0, 320.0, 401, 0.0),
            (-25.0, 50.0, 301, 287.5),
        ],
    )
    def test_boosted_coherent_state_on_off_centre_momentum_grid(
        self, natural_system, p_lo, p_hi, n_p, boost
    ):
        x0, p0 = 1.3, 0.5 * (p_lo + p_hi) + boost
        grid = GridSpec(x=np.linspace(-8.0, 8.0, 321), p=np.linspace(p_lo, p_hi, n_p))

        def psi(x):
            return np.pi**-0.25 * np.exp(-0.5 * (x - x0) ** 2 + 1j * p0 * x)

        field = wigner_transform(psi, grid, natural_system)
        exact = np.exp(
            -((grid.x[:, None] - x0) ** 2) - (grid.p[None, :] - p0) ** 2
        ) / np.pi
        assert np.max(np.abs(field.values - exact)) < 1e-12 / np.pi
        # |psi~| = e^{-(p - p0)^2 / 2} falls to 1e-12 of its peak at
        # |p - p0| = sqrt(2 ln 1e12), read to the probe spectrum's resolution
        note = next(n for n in field.notes if n.startswith("p_reach="))
        reach = abs(p0) + np.sqrt(2.0 * np.log(1e12))
        assert float(note.split("=")[1]) == pytest.approx(reach, abs=0.5)

    def test_unresolved_momentum_reach_raises(self, natural_system):
        # local momentum 2e6 x: aliased in every probe band up to 2^10 times
        # the first, so the two probes never agree on the reach
        grid = GridSpec(x=np.linspace(-8.0, 8.0, 321), p=np.linspace(-5.0, 5.0, 201))

        def chirp(x):
            return np.pi**-0.25 * np.exp(-0.5 * x**2 + 1e6j * x**2)

        with pytest.raises(GridCoverageError, match="aliased"):
            wigner_transform(chirp, grid, natural_system)

    def test_field_does_not_depend_on_worker_count(self, canonical_cl_run, monkeypatch):
        # every row is transformed alone, so any split of the rows into spans
        # and of the buffer into slices gives the same bits
        run = canonical_cl_run
        fields = {}
        for workers in (1, 3):
            monkeypatch.setattr(_parallel, "WORKERS", workers)
            fields[workers] = wigner_transform(run.psi, run.grid, run.system)
        assert np.array_equal(fields[3].values, fields[1].values)
        assert fields[3].notes == fields[1].notes
        assert np.array_equal(run.field0.values, fields[1].values)

    @staticmethod
    def _two_lobes(x):
        """Lobes 4.2 inside each edge of x in [-6.5, 6.5], with their own
        momenta and weights: every row of a grid on that axis reaches at
        least 5e-9 of the peak, and the two edge rows differ."""
        g = np.pi**-0.25 * np.exp(-0.5 * (x + 2.3) ** 2 - 1.5j * x)
        return g + 0.7 * np.pi**-0.25 * np.exp(-0.5 * (x - 2.3) ** 2 + 2j * x)

    @pytest.mark.parametrize("n_x", [2, 3, 4, 5, 160])
    def test_pairs_match_direct_sum(self, natural_system, n_x):
        # Row j shares a chirp-z with row n_x // 2 + 1 + j; the centre row and,
        # on an even grid, the row below it go alone. Every row against a
        # per-row trapezoid sum over the transform's own y-step.
        grid = GridSpec(x=np.linspace(-6.5, 6.5, n_x), p=np.linspace(-5.0, 6.0, 111))
        psi = self._two_lobes
        field = wigner_transform(psi, grid, natural_system)
        note = next(n for n in field.notes if n.startswith("y_step="))
        h = float(note.split("=")[1])
        # beyond |y| = 20 one of x +- y lies 11 or more from both lobes
        ys = h * np.arange(-int(20.0 / h), int(20.0 / h) + 1)
        phase = np.exp((2j / natural_system.hbar) * np.outer(ys, grid.p))
        ref = np.array([
            (np.conj(psi(xi + ys)) * psi(xi - ys)) @ phase for xi in grid.x
        ]).real * h / (np.pi * natural_system.hbar)
        bound = np.sum(np.abs(psi(ys)) ** 2) * h / (np.pi * natural_system.hbar)
        assert np.min(np.max(np.abs(ref), axis=1)) > 5e-9 * np.max(np.abs(ref))
        assert np.max(np.abs(field.values - ref)) < 1e-13 * bound

    def test_even_grid_does_not_depend_on_worker_count(self, natural_system, monkeypatch):
        # an even row count leaves two rows unpaired; the pairs are fixed on
        # the grid, so any split of them into spans gives the same bits
        grid = GridSpec(x=np.linspace(-6.5, 6.5, 160), p=np.linspace(-5.0, 6.0, 111))
        fields = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(_parallel, "WORKERS", workers)
            fields[workers] = wigner_transform(self._two_lobes, grid, natural_system)
        for workers in (2, 3):
            assert np.array_equal(fields[workers].values, fields[1].values)
            assert fields[workers].notes == fields[1].notes

    def test_one_block_buffer_at_peak(self, natural_system):
        # Every block is built, zero-padded and transformed in one buffer of
        # at most 512 complex entries per column of the y table, 8192 bytes
        # per column, shared out one slice per worker. A separate table,
        # padded copy and spectrum per block take the peak above the output
        # to about 2.7 buffers.
        x0, p0 = 1.3, 0.4
        grid = GridSpec(x=np.linspace(-8.0, 8.0, 801), p=np.linspace(-6.0, 6.0, 601))

        def psi(x):
            return np.pi**-0.25 * np.exp(-0.5 * (x - x0) ** 2 + 1j * p0 * x)

        field, peak = traced_peak(wigner_transform, psi, grid, natural_system)
        note = next(n for n in field.notes if n.startswith("y_step="))
        y_step = float(note.split("=")[1])
        # |psi| > 1e-12 of its peak within sqrt(2 ln 1e12) of x0
        columns = 2.0 * np.sqrt(2.0 * np.log(1e12)) / y_step + 5.0
        buffer = 512 * 16 * columns
        assert peak - field.values.nbytes <= 1.5 * buffer, (peak, buffer)

    def test_canonical_grid_takes_the_grid_step(self, canonical_cl_run):
        # dx (max|p| + reach) < pi hbar on this for_orbit grid, so no y-step
        # finer than the grid's own is needed
        note = next(n for n in canonical_cl_run.field0.notes if n.startswith("y_step="))
        assert float(note.split("=")[1]) == canonical_cl_run.grid.dx

    def test_rows_match_dense_sum(self, natural_system):
        # plain trapezoid sum over the transform's own step, every column
        st = build_energy_band_state(50, 8)
        grid = GridSpec.for_orbit(classical_orbit(st, natural_system))
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        note = next(n for n in field.notes if n.startswith("y_step="))
        h = float(note.split("=")[1])
        ys = h * np.arange(-int(18.0 / h), int(18.0 / h) + 1)
        rows = [len(grid.x) // 2, len(grid.x) // 3, len(grid.x) // 7, 5 * len(grid.x) // 6]
        corr = np.array([np.conj(psi(grid.x[i] + ys)) * psi(grid.x[i] - ys) for i in rows])
        ref = np.concatenate([
            np.exp((2j / natural_system.hbar) * np.outer(part, ys)) @ corr.T
            for part in np.array_split(grid.p, 8)
        ]).real.T * h / (np.pi * natural_system.hbar)
        scale = np.max(np.abs(field.values))
        assert np.max(np.abs(field.values[rows] - ref)) < 1e-12 * scale

    def test_nonfinite_sampler_rejected(self, natural_system):
        st = build_energy_band_state(12, 2)
        grid = _wide_grid(classical_orbit(st, natural_system))
        psi = band_wavefunction(st, natural_system)

        def broken(x):
            values = psi(x)
            values[values.size // 2] = np.nan
            return values

        with pytest.raises(ValueError, match="NaN"):
            wigner_transform(broken, grid, natural_system)

    def test_unbounded_support_rejected(self, natural_system):
        # a constant amplitude never falls below the envelope threshold
        x = 0.05 * np.arange(-120, 121)
        with pytest.raises(GridCoverageError, match="could not bracket"):
            wigner_transform(np.ones_like, GridSpec(x=x, p=x), natural_system)

    def test_support_probe_widens_at_most_twelve_times(self, natural_system):
        # The probe doubles its window up to 12 times, to 4096 times the axis.
        # A Gaussian whose support spans 190 times the axis takes 8 doublings,
        # and the grid then misses its norm; a constant amplitude is given up
        # after 81,912 probe points, before 100,000.
        axis = np.linspace(-1.0, 1.0, 21)
        grid = GridSpec(x=axis, p=axis)
        with pytest.raises(GridCoverageError, match="misses 9.5"):
            wigner_transform(
                lambda x: np.exp(-0.5 * (x / 25.0) ** 2).astype(complex), grid, natural_system
            )
        seen = []

        def flat(x):
            seen.append(x.size)
            assert sum(seen) < 100_000, "the probe kept widening"
            return np.ones_like(x)

        with pytest.raises(GridCoverageError, match="could not bracket"):
            wigner_transform(flat, grid, natural_system)

    def test_all_zero_sampler_rejected(self, natural_system):
        # no sample above zero leaves no support to bracket
        x = 0.05 * np.arange(-120, 121)
        with pytest.raises(ValueError, match="wavefunction sampler returned zero everywhere"):
            wigner_transform(np.zeros_like, GridSpec(x=x, p=x), natural_system)

    def test_coverage_precondition(self, natural_system):
        st = build_energy_band_state(0, 0)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)  # +-1.5 x_max misses ground-state tails
        with pytest.raises(GridCoverageError, match="norm"):
            wigner_transform(band_wavefunction(st, natural_system), grid,
                             natural_system)

    def test_coverage_tolerance_is_pinned(self, natural_system):
        # the ground state misses erfc(3.75) = 1.14e-7 of its norm on
        # [-3.75, 3.75], which a 1e-6 tolerance would pass, and erfc(4.2) =
        # 2.9e-9 on [-4.2, 4.2], which a 1e-9 tolerance would reject
        psi = band_wavefunction(build_energy_band_state(0, 0), natural_system)
        p = np.linspace(-8.0, 8.0, 161)
        with pytest.raises(GridCoverageError, match="misses 1.1"):
            wigner_transform(psi, GridSpec(x=np.linspace(-3.75, 3.75, 151), p=p),
                             natural_system)
        wigner_transform(psi, GridSpec(x=np.linspace(-4.2, 4.2, 169), p=p), natural_system)

    @pytest.mark.parametrize(
        "a, n", [(4.0, 21), (4.0, 23), (3.9, 27)]
    )
    def test_coverage_reads_the_leak_on_a_coarse_grid(self, natural_system, a, n):
        # on [-a, a] with dx = 0.30 to 0.40 the ground state misses erfc(a),
        # 1.5e-8 to 3.5e-8, above the 1e-8 tolerance; a share that placed each
        # axis end to half a probe step read 2.3e-8 to 5.5e-8 here, and one
        # that weighted the edge samples in full would read below the tolerance
        psi = band_wavefunction(build_energy_band_state(0, 0), natural_system)
        grid = GridSpec(x=np.linspace(-a, a, n), p=np.linspace(-8.0, 8.0, 161))
        with pytest.raises(GridCoverageError, match="misses") as caught:
            wigner_transform(psi, grid, natural_system)
        leak = float(str(caught.value).split("misses ")[1].split()[0])
        assert leak == pytest.approx(special.erfc(a), rel=0.1)

    @pytest.mark.parametrize(
        "p0", [80.0 * np.pi, 160.0 * np.pi, 320.0 * np.pi, 620.0 * np.pi / 3.0]
    )
    def test_reach_check_step_is_pinned(self, natural_system, p0):
        # The support probe's step s = 0.05 folds momenta with period 40 pi,
        # and a check at step r s with period 40 pi / r. For r = 1/2, 3/4 and
        # 3/8, p0 = 80 pi, 160 pi and 320 pi is a common multiple of the two
        # periods: both fold the band to the probe's reach of 7.2, and W's
        # alias at p = 0 lands on the grid at 1 / pi; for r = 3/16 the first
        # common multiple is 640 pi. At p0 = 620 pi / 3 the 3 s / 16 check
        # folds the band to -21 where the probe folds it to +21: compared by
        # |p| alone the two agree on 28.3 and an alias lands at 0.41 / pi.
        x0 = 1.3
        grid = GridSpec(x=np.linspace(-8.0, 8.0, 321), p=np.linspace(-20.0, 20.0, 201))

        def psi(x):
            return np.pi**-0.25 * np.exp(-0.5 * (x - x0) ** 2 + 1j * p0 * x)

        field = wigner_transform(psi, grid, natural_system)
        assert np.max(np.abs(field.values)) < 1e-12 / np.pi
        note = next(n for n in field.notes if n.startswith("p_reach="))
        reach = p0 + np.sqrt(2.0 * np.log(1e12))
        assert float(note.split("=")[1]) == pytest.approx(reach, abs=0.5)


    @pytest.mark.parametrize("residue, raises", [(0.5e-10, False), (2e-10, True)])
    def test_imaginary_residue_bound_is_pinned(self, natural_system, monkeypatch, residue, raises):
        # An imaginary offset on every inverse transform reaches the centre
        # row's sum at p = 0 whole, against the bound ||psi||^2 / (pi hbar) =
        # 1 / pi of the ground state
        psi = band_wavefunction(build_energy_band_state(0, 0), natural_system)
        axis = np.linspace(-8.0, 8.0, 161)
        ifft = sp_fft.ifft

        def offset(*args, **kwargs):
            return ifft(*args, **kwargs) + 1j * residue / np.pi

        monkeypatch.setattr(sp_fft, "ifft", offset)
        if raises:
            with pytest.raises(ValueError, match="imaginary residue"):
                wigner_transform(psi, GridSpec(x=axis, p=axis), natural_system)
        else:
            field = wigner_transform(psi, GridSpec(x=axis, p=axis), natural_system)
            assert f"imag_residue={residue / np.pi:.3e}" in field.notes


class TestExactOscillatorWigner:
    def test_first_excited_central_value(self, natural_system):
        val = exact_oscillator_wigner(1, 0.0, 0.0, natural_system)
        assert val == pytest.approx(-1.0 / np.pi, rel=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 5, 17, 30])
    def test_cross_oracle_low_levels(self, natural_system, n):
        st = build_energy_band_state(n, 0)
        orb = classical_orbit(st, natural_system)
        grid = _wide_grid(orb)
        field = wigner_transform(band_wavefunction(st, natural_system), grid,
                                 natural_system)
        exact = exact_oscillator_wigner(n, grid.x[:, None], grid.p[None, :],
                                        natural_system)
        assert np.max(np.abs(field.values - exact)) < 1e-5

    def test_underflow_guard_returns_zero(self, natural_system):
        assert exact_oscillator_wigner(3, 40.0, 0.0, natural_system) == 0.0

    @pytest.mark.parametrize("n, x, p", [(0, 1e200, 0.0), (3, 0.0, 1e160), (3, np.inf, 0.0)])
    def test_far_points_read_zero_without_warning(self, natural_system, n, x, p):
        # the energy saturates to inf, and the z > 1400 clamp turns the
        # recurrence's inf * 0 = NaN into 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert exact_oscillator_wigner(n, x, p, natural_system) == 0.0

    def test_clamp_starts_at_z_1400(self, natural_system):
        # z = 2 x^2 here; W_200 at z = 1399 against mpmath (50 digits), while
        # at z = 1401 its 7.8e-66 is clamped to 0
        x = np.sqrt(np.array([1399.0, 1401.0]) / 2.0)
        values = exact_oscillator_wigner(200, x, 0.0, natural_system)
        assert values[0] == pytest.approx(1.5016726951772017e-65, rel=1e-12)
        assert values[1] == 0.0

    @pytest.mark.parametrize("n", [2.5, np.nan, np.inf, -1])
    def test_rejects_invalid_level(self, natural_system, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            exact_oscillator_wigner(n, 0.0, 0.0, natural_system)

    @pytest.mark.parametrize("name", ["x", "p"])
    def test_rejects_nan_point(self, natural_system, name):
        # NaN once came back as the value; +-inf stays a far point reading 0
        points = {"x": np.array([0.5, 1.0]), "p": np.array([0.0, np.inf])}
        points[name][0] = np.nan
        with pytest.raises(ValueError, match=f"^{name} has NaN entries$"):
            exact_oscillator_wigner(3, points["x"], points["p"], natural_system)

    def test_levels_stop_at_300(self, natural_system):
        # at n = 300 the clamp drops below 1.4e-13 of the peak 1/pi; above it
        # the clamp would cut into the allowed region z < 4n + 2 (at n = 1000
        # it read 1.87e-3 at z = 1399 and 0 at z = 1401, where the exact value
        # is -5.0e-3), so the level is rejected rather than silently zeroed
        assert exact_oscillator_wigner(300, 0.0, 0.0, natural_system) == pytest.approx(
            1.0 / np.pi, rel=1e-12
        )
        with pytest.raises(ValueError, match="level 301 is above 300"):
            exact_oscillator_wigner(301, 0.0, 0.0, natural_system)


class TestDensityMatrixFromWigner:
    def test_pure_gaussian_product(self, natural_system):
        st = build_energy_band_state(0, 0)
        orb = classical_orbit(st, natural_system)
        grid = _wide_grid(orb, x_step=0.05)
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        xs = np.array([0.0, 0.4, -0.3])
        xps = np.array([0.2, -0.5, 0.1])
        got = density_matrix_from_wigner(field, natural_system, xs, xps)
        expected = psi(xs) * np.conj(psi(xps))
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_matches_bicubic_reference(self, natural_system):
        st = build_energy_band_state(12, 4)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)
        full = wigner_transform(band_wavefunction(st, natural_system), grid, natural_system)
        # an off-centre slice in x, so the edge rows the spline clips at are
        # not negligible; the first two midpoints sit in the edge cells
        keep = (grid.x >= -0.5 * orb.amplitude) & (grid.x <= 0.3 * orb.amplitude)
        field = WignerField(grid.x[keep], grid.p, full.values[keep])
        x = field.x_grid
        mid = np.concatenate(
            [[x[0] + 0.3 * field.dx, x[-1] - 0.6 * field.dx], np.linspace(-0.45, 0.25, 6) * orb.amplitude]
        )
        sep = np.linspace(-1.5, 2.0, 8)
        xs, xps = mid + 0.5 * sep, mid - 0.5 * sep
        got = density_matrix_from_wigner(field, natural_system, xs, xps)
        # reference: full bicubic prefilter, then the interpolated rows
        coeffs = ndimage.spline_filter(field.values, order=3, mode="nearest")
        rows = (mid - x[0]) / field.dx
        cols = np.arange(grid.p.size, dtype=float)
        lines = ndimage.map_coordinates(
            coeffs, np.broadcast_arrays(rows[:, None], cols[None, :]),
            order=3, mode="nearest", prefilter=False,
        )
        phase = np.exp(1j * np.outer(sep, grid.p) / natural_system.hbar)
        expected = trapz(lines * phase, dx=field.dp, axis=1)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["x", "x_prime"])
    def test_rejects_nonfinite_position(self, natural_system, name, bad):
        st = build_energy_band_state(0, 0)
        grid = _wide_grid(classical_orbit(st, natural_system), x_step=0.05)
        field = wigner_transform(band_wavefunction(st, natural_system), grid, natural_system)
        pairs = {"x": np.array([0.0, 0.4]), "x_prime": np.array([0.2, -0.5])}
        pairs[name][1] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            density_matrix_from_wigner(field, natural_system, pairs["x"], pairs["x_prime"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_cell(self, natural_system, bad):
        # WignerField is mutable, so the cell is checked at the call: once
        # every entry read NaN + NaN j
        st = build_energy_band_state(0, 0)
        grid = _wide_grid(classical_orbit(st, natural_system), x_step=0.05)
        field = wigner_transform(band_wavefunction(st, natural_system), grid, natural_system)
        field.values[field.values.shape[0] // 2, 3] = bad
        with pytest.raises(ValueError, match="^field has non-finite entries"):
            density_matrix_from_wigner(field, natural_system, [0.0, 0.4], [0.2, -0.5])

    @pytest.mark.parametrize(
        "case, error, message",
        [
            (
                "values-shape", ValueError,
                r"WignerField\.values must have shape \(len\(x_grid\), len\(p_grid\)\)",
            ),
            ("axis-2d", ValueError, r"WignerField\.x_grid must be a 1-D grid"),
            ("axis-one-cell", ValueError, r"WignerField\.p_grid must be a 1-D grid"),
            ("pair-shapes", ValueError, "x and x_prime must have the same shape"),
            ("midpoint", GridCoverageError, "midpoint outside the field's position grid"),
        ],
    )
    def test_misshapen_field_or_pairs_rejected(self, natural_system, case, error, message):
        axis = np.linspace(-1.0, 1.0, 5)
        field = WignerField(axis, axis, np.ones((5, 5)))
        calls = {
            "values-shape": lambda: WignerField(axis, axis, np.ones((5, 4))),
            "axis-2d": lambda: WignerField(axis[None, :], axis, np.ones((5, 5))),
            "axis-one-cell": lambda: WignerField(axis, [0.0], np.ones((5, 1))),
            "pair-shapes": lambda: density_matrix_from_wigner(
                field, natural_system, [0.0, 0.1], [0.0]
            ),
            # only the midpoint is read, and 1.1 lies past the grid's last column
            "midpoint": lambda: density_matrix_from_wigner(field, natural_system, [0.9], [1.3]),
        }
        with pytest.raises(error, match=f"^{message}$"):
            calls[case]()

    def test_diagonal_recovers_position_density(self, natural_system):
        st = build_energy_band_state(50, 2)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        xs = np.linspace(-4.0, 4.0, 9)
        got = density_matrix_from_wigner(field, natural_system, xs, xs)
        assert np.max(np.abs(got - np.abs(psi(xs)) ** 2)) < 1e-5
