"""Band states, exact eigenfunctions, WKB amplitudes, Wigner transforms."""

from __future__ import annotations

import numpy as np
import pytest

from bohmdec.errors import DomainValidityError, GridCoverageError
from bohmdec.phase_space import (
    GridSpec,
    OscillatorSystemSpec,
    WignerField,
    band_wavefunction,
    build_energy_band_state,
    classical_orbit,
    density_matrix_from_wigner,
    eigenfunction_exact,
    eigenfunction_table,
    exact_oscillator_wigner,
    wigner_transform,
    wkb_amplitudes,
    wkb_wavefunction,
)
from conftest import brute_force_wigner, local_average, momentum_wavefunction, trapz


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

    def test_narrow_band_flag(self):
        assert build_energy_band_state(50, 4).semiclassical_ok
        assert not build_energy_band_state(5, 4).semiclassical_ok
        assert not build_energy_band_state(9, 0).semiclassical_ok

    @pytest.mark.parametrize("levels", [(10.7, 2), (10, 2.5), (np.nan, 2), (np.inf, 0)])
    def test_rejects_non_integer_levels(self, levels):
        with pytest.raises(ValueError, match="integer"):
            build_energy_band_state(*levels)

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


class TestEigenfunctions:
    def test_ground_state_peak(self, natural_system):
        val = eigenfunction_exact(0, np.array([0.0]), natural_system)[0]
        assert val == pytest.approx(np.pi**-0.25, rel=1e-14)

    def test_first_excited_node(self, natural_system):
        assert eigenfunction_exact(1, np.array([0.0]), natural_system)[0] == 0.0

    def test_level_50_normalization(self, natural_system):
        xs = np.linspace(-16.0, 16.0, 40001)
        dens = eigenfunction_exact(50, xs, natural_system) ** 2
        assert trapz(dens, xs) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonality(self, natural_system):
        xs = np.linspace(-16.0, 16.0, 40001)
        a = eigenfunction_exact(50, xs, natural_system)
        b = eigenfunction_exact(49, xs, natural_system)
        assert abs(trapz(a * b, xs)) < 1e-8

    def test_very_high_level_stays_finite(self, natural_system):
        vals = eigenfunction_exact(20000, np.array([0.0, 50.0, 190.0]), natural_system)
        assert np.all(np.isfinite(vals))
        assert abs(vals[0]) > 1e-3
        # far outside the classical region the value must underflow to ~0
        tail = eigenfunction_exact(20000, np.array([250.0]), natural_system)
        assert abs(tail[0]) < 1e-100

    def test_mass_scaling(self):
        heavy = OscillatorSystemSpec(mass=4.0)
        light = OscillatorSystemSpec(mass=1.0)
        # psi_m(x) = m^(1/4) psi_1(sqrt(m) x) for the ground state
        x = np.array([0.3, 0.7])
        lhs = eigenfunction_exact(0, x, heavy)
        rhs = 4.0**0.25 * eigenfunction_exact(0, 2.0 * x, light)
        assert np.allclose(lhs, rhs, rtol=1e-13)

    def test_table_matches_single_level(self, natural_system):
        xs = np.linspace(-8.0, 8.0, 101)
        table = eigenfunction_table(np.array([48, 50, 52]), xs, natural_system)
        for row, n in zip(table, (48, 50, 52)):
            assert np.allclose(row, eigenfunction_exact(n, xs, natural_system))

    @pytest.mark.parametrize("level", [-1, 10.7, np.nan, np.inf])
    def test_rejects_invalid_level(self, natural_system, level):
        with pytest.raises(ValueError, match="non-negative integers"):
            eigenfunction_exact(level, np.array([0.3]), natural_system)


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
        assert np.allclose(np.abs(amp.g_plus(x)), expected, rtol=1e-13)
        assert np.allclose(np.abs(amp.g_minus(x)), expected, rtol=1e-13)

    def test_amplitudes_vanish_outside_orbit(self, natural_system):
        st = build_energy_band_state(50, 4)
        orb = classical_orbit(st, natural_system)
        amp = wkb_amplitudes(st, orb, natural_system)
        x = np.array([-1.2 * orb.amplitude, 1.01 * orb.amplitude])
        assert np.all(amp.g_plus(x) == 0.0)
        assert np.all(amp.g_minus(x) == 0.0)

    @pytest.mark.parametrize("band_width", [0, 8])
    def test_branch_density_normalization(self, natural_system, band_width):
        st = build_energy_band_state(50, band_width)
        orb = classical_orbit(st, natural_system)
        amp = wkb_amplitudes(st, orb, natural_system)
        # integrate in the orbit angle to tame the turning-point singularity
        theta = np.linspace(-np.pi / 2, np.pi / 2, 20001)[1:-1]
        xs = orb.amplitude * np.sin(theta)
        jac = orb.amplitude * np.cos(theta)
        total = trapz((amp.rho_plus(xs) + amp.rho_minus(xs)) * jac, theta)
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
        weight_plus = trapz(amp.rho_plus(xs) * jac, theta)
        weight_minus = trapz(amp.rho_minus(xs) * jac, theta)

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
        assert np.allclose(psi, eigenfunction_exact(50, xs, natural_system))


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

    @pytest.mark.parametrize("kind", ["GridSpec", "WignerField"])
    def test_rejects_nonuniform_axis(self, kind):
        x, p = np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="uniform"):
            _build_axes(kind, x, p)

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
        # after the support probe and the coverage pass
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
        "p_lo, p_hi, n_p", [(-2.3, 6.1, 400), (26.0, 34.0, 401), (-9.0, 1.0, 300)]
    )
    def test_boosted_coherent_state_on_off_centre_momentum_grid(
        self, natural_system, p_lo, p_hi, n_p
    ):
        x0, p0 = 1.3, 0.5 * (p_lo + p_hi) + 0.4
        grid = GridSpec(x=np.linspace(-8.0, 8.0, 321), p=np.linspace(p_lo, p_hi, n_p))

        def psi(x):
            return np.pi**-0.25 * np.exp(-0.5 * (x - x0) ** 2 + 1j * p0 * x)

        field = wigner_transform(psi, grid, natural_system)
        exact = np.exp(
            -((grid.x[:, None] - x0) ** 2) - (grid.p[None, :] - p0) ** 2
        ) / np.pi
        assert np.max(np.abs(field.values - exact)) < 1e-12 / np.pi

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

    def test_coverage_precondition(self, natural_system):
        st = build_energy_band_state(0, 0)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)  # +-1.5 x_max misses ground-state tails
        with pytest.raises(GridCoverageError, match="norm"):
            wigner_transform(band_wavefunction(st, natural_system), grid,
                             natural_system)


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

    @pytest.mark.parametrize("n", [2.5, np.nan, np.inf, -1])
    def test_rejects_invalid_level(self, natural_system, n):
        with pytest.raises(ValueError, match="non-negative integer"):
            exact_oscillator_wigner(n, 0.0, 0.0, natural_system)


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

    def test_diagonal_recovers_position_density(self, natural_system):
        st = build_energy_band_state(50, 2)
        orb = classical_orbit(st, natural_system)
        grid = GridSpec.for_orbit(orb)
        psi = band_wavefunction(st, natural_system)
        field = wigner_transform(psi, grid, natural_system)
        xs = np.linspace(-4.0, 4.0, 9)
        got = density_matrix_from_wigner(field, natural_system, xs, xs)
        assert np.max(np.abs(got - np.abs(psi(xs)) ** 2)) < 1e-5
