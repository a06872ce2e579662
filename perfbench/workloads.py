"""The benchmark's three workloads and the correctness gates on their outputs.

Every workload is split into ``setup_*`` (build the inputs: parameters,
states, grids, samplers and precomputed references) and ``pass_*`` (one
timed pass of public calls and gates). Both take a config so the smoke test
can run the same code at reduced sizes; the default configs are the
benchmark.

Each gate reuses a tolerance that already exists in the test suite or in a
code guard and names where it comes from. Known defects that have no agreed
tolerance yet are reported as readings, never gated, and never hidden by
tuning a step, a mode count or a time.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from bohmdec.errors import BohmdecError, CouplingStrengthWarning


class StageFailed(Exception):
    """A public call raised a typed library error; the pass cannot go on."""


class Ledger:
    """Operations attempted and failed in one pass, plus accuracy readings.

    Each public call and each gate is one operation. A call that raises a
    :class:`~bohmdec.errors.BohmdecError` and a gate over its tolerance are
    failures.
    """

    def __init__(self, api, tracer) -> None:
        self.api = api
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.readings: dict[str, float] = {}

    def call(self, name: str, *args, **kwargs):
        self.attempted += 1
        try:
            return getattr(self.api, name)(*args, **kwargs)
        except BohmdecError as exc:
            self.failed += 1
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            raise StageFailed(name) from exc

    def gate(self, name: str, value: float, limit: float, source: str, *, at_least=False):
        """``value <= limit`` (``>=`` with ``at_least``); NaN always fails."""
        self.attempted += 1
        ok = value >= limit if at_least else value <= limit
        if not ok:
            self.failed += 1
            sign = "<" if at_least else ">"
            self.failures.append(f"{name}: {value!r} {sign} {limit!r} [{source}]")

    def reading(self, name: str, value: float) -> None:
        """Keep the largest value seen for the per-layer metric ``name``."""
        self.readings[name] = max(self.readings.get(name, -math.inf), float(value))


def _mass_residual(field) -> float:
    for note in reversed(field.notes):
        if note.startswith("mass_residual="):
            return float(note.split("=", 1)[1])
    return math.nan


def _gate_mass(ledger: Ledger, field) -> None:
    residual = _mass_residual(field)
    ledger.reading("quadratic_master.propagate_wigner.mass_residual_max", residual)
    ledger.gate("mass_residual", residual, 1e-3, "quadratic_master/apply.py _NORM_GUARD")


def _bulk(field, orbit, floor_fraction: float) -> np.ndarray:
    """Mask of grid columns inside 0.8 x_max whose position density clears the floor."""
    marginal = field.values.sum(axis=1)
    return (np.abs(field.x_grid) <= 0.8 * orbit.amplitude) & (
        marginal >= floor_fraction * marginal.max()
    )


# --------------------------------------------------------------------------
# canonical_band: one long smear of the ROADMAP canonical band on a big grid


@dataclass(frozen=True)
class CanonicalBand:
    level: int = 50
    width: int = 8
    x_span: float = 1.3
    p_span: float = 2.0
    damping_rate: float = 1e-4
    thermal_energy: float = 1e3
    cutoff: float = 1e3
    t_over_tc: float = 5.0
    # test_band_margins_restored_at_five_t_c asks for more than 100 columns
    min_columns: int = 101


def setup_canonical(api, cfg: CanonicalBand, seed: int):
    system = api.OscillatorSystemSpec()
    params = api.CaldeiraLeggettParams(
        damping_rate=cfg.damping_rate, thermal_energy=cfg.thermal_energy, cutoff=cfg.cutoff
    )
    state = api.build_energy_band_state(cfg.level, cfg.width)
    orbit = api.classical_orbit(state, system)
    t_end = cfg.t_over_tc * api.timescales(system, params, orbit).t_c
    return dict(
        system=system,
        params=params,
        state=state,
        orbit=orbit,
        grid=api.GridSpec.for_orbit(orbit, x_span=cfg.x_span, p_span=cfg.p_span),
        psi=api.band_wavefunction(state, system),
        wkb=api.wkb_amplitudes(state, orbit, system),
        coeffs=api.assemble_cl_coefficients(system, params),
        t_end=t_end,
    )


def pass_canonical(ledger: Ledger, cfg: CanonicalBand, inp) -> None:
    api, system, orbit = ledger.api, inp["system"], inp["orbit"]
    with ledger.tracer.span("transform"):
        field0 = ledger.call("wigner_transform", api.sampler(inp["psi"]), inp["grid"], system)
    with ledger.tracer.span("propagate"):
        prop = ledger.call("integrate_propagator", inp["coeffs"], inp["t_end"])
        field = ledger.call("propagate_wigner", prop, field0, system)
        _gate_mass(ledger, field)
    with ledger.tracer.span("velocity"):
        every_fifth = np.arange(field.x_grid.size) % 5 == 0
        cols = np.flatnonzero(_bulk(field, orbit, 1e-6) & every_fifth)
        x = field.x_grid[cols]
        v = ledger.call("ensemble_velocity", field, system, x)
        margins = ledger.call("classical_band_margin", v, orbit, x)
        source = "tests/test_bohm_velocity.py::test_band_margins_restored_at_five_t_c"
        ledger.gate("band_margin.columns", cols.size, cfg.min_columns, source, at_least=True)
        ledger.gate("band_margin.min", float(np.min(margins)), -0.05, source, at_least=True)
    with ledger.tracer.span("decomposition"):
        minv = api.MInverseParams.from_m_matrix(prop.m)
        report = ledger.call(
            "validity_window", minv, orbit, system, cl_params=inp["params"], time=inp["t_end"]
        )
        ledger.gate(
            "validity_window.passed", float(report.passed), 1.0,
            "tests/test_bohm_velocity.py::test_canonical_run_passes_at_five_t_c",
            at_least=True,
        )
        ledger.call(
            "semiclassical_decomposition", minv, orbit, inp["wkb"], x,
            cl_params=inp["params"], time=inp["t_end"],
        )


# --------------------------------------------------------------------------
# band_ladder: Wigner transforms of growing bands, t=0 route checks, short
# propagations and the Gaussian moment oracle across every propagator path


@dataclass(frozen=True)
class BandLadder:
    bands: tuple = ((12, 4), (30, 6), (50, 8), (80, 8))
    propagated: tuple = (0, 1)  # indices into ``bands``
    t_over_tc: tuple = (0.02, 0.1)
    x_span: float = 1.5
    p_span: float = 2.0
    damping_rate: float = 1e-4
    thermal_energy: float = 1e3
    cutoff: float = 1e3
    diagonal_points: int = 8
    # tests/test_quadratic_master.py: default_cl, symmetric_grid(6.0, 0.05)
    oracle_params: tuple = (1e-2, 10.0, 100.0)
    oracle_half_span: float = 6.0
    oracle_step: float = 0.05
    oracle_times: tuple = (0.01, 0.1, 0.3, 1.0, 2.0)
    # the times at which the test asserts the oracle mass to 1e-6
    oracle_mass_times: tuple = (0.1, 0.3)


def _gaussian_values(x, p, mean, cov) -> np.ndarray:
    inv = np.linalg.inv(cov)
    xx = x[:, None] - mean[0]
    pp = p[None, :] - mean[1]
    quad = inv[0, 0] * xx**2 + 2.0 * inv[0, 1] * xx * pp + inv[1, 1] * pp**2
    return np.exp(-0.5 * quad) / (2.0 * np.pi * np.sqrt(np.linalg.det(cov)))


def _moment_oracle(coeffs, mean0, cov0, t):
    """Mean and covariance evolved by their own ODE (independent of the propagator)."""
    from scipy.integrate import solve_ivp

    def rhs(time, y):
        k = coeffs.drift_matrix(time)
        j = coeffs.diffusion_matrix(time)
        cov = y[2:].reshape(2, 2)
        dcov = -k @ cov - cov @ k.T + 2.0 * j
        return np.concatenate([-k @ y[:2], dcov.ravel()])

    y0 = np.concatenate([mean0, cov0.ravel()])
    sol = solve_ivp(rhs, (0.0, t), y0, method="DOP853", rtol=1e-12, atol=1e-14)
    return sol.y[:2, -1], sol.y[2:, -1].reshape(2, 2)


def setup_ladder(api, cfg: BandLadder, seed: int):
    system = api.OscillatorSystemSpec()
    params = api.CaldeiraLeggettParams(
        damping_rate=cfg.damping_rate, thermal_energy=cfg.thermal_energy, cutoff=cfg.cutoff
    )
    bands = []
    for level, width in cfg.bands:
        state = api.build_energy_band_state(level, width)
        orbit = api.classical_orbit(state, system)
        bands.append(
            dict(
                label=f"n{level}w{width}",
                orbit=orbit,
                grid=api.GridSpec.for_orbit(orbit, x_span=cfg.x_span, p_span=cfg.p_span),
                psi=api.band_wavefunction(state, system),
                t_c=api.timescales(system, params, orbit).t_c,
            )
        )
    gamma, kt, cutoff = cfg.oracle_params
    oracle_coeffs = api.assemble_cl_coefficients(
        system,
        api.CaldeiraLeggettParams(damping_rate=gamma, thermal_energy=kt, cutoff=cutoff),
    )
    k = int(round(cfg.oracle_half_span / cfg.oracle_step))
    axis = cfg.oracle_step * np.arange(-k, k + 1)
    mean0 = np.array([0.7, -0.4])
    cov0 = 0.5 * np.eye(2)
    oracle_field = api.WignerField(
        x_grid=axis, p_grid=axis, values=_gaussian_values(axis, axis, mean0, cov0)
    )
    references = [
        (t, *_moment_oracle(oracle_coeffs, mean0, cov0, t)) for t in cfg.oracle_times
    ]
    return dict(
        system=system,
        coeffs=api.assemble_cl_coefficients(system, params),
        bands=bands,
        oracle_coeffs=oracle_coeffs,
        oracle_field=oracle_field,
        references=references,
    )


def pass_ladder(ledger: Ledger, cfg: BandLadder, inp) -> None:
    api, system = ledger.api, inp["system"]
    fields = {}
    for i, band in enumerate(inp["bands"]):
        with ledger.tracer.span(f"transform.{band['label']}"):
            psi = api.sampler(band["psi"])
            field = ledger.call("wigner_transform", psi, band["grid"], system)
            fields[i] = field
            cols = np.flatnonzero(_bulk(field, band["orbit"], 0.1))
            cols = cols[:: max(1, cols.size // 100)]
            x = field.x_grid[cols]
            ve = ledger.call("ensemble_velocity", field, system, x)
            vb = ledger.call("initial_velocity", psi, x, system)
            gap = float(np.max(np.abs(ve - vb)))
            ledger.reading("bohm_velocity.t0_route_gap", gap)
            ledger.gate(
                f"t0_velocity.{band['label']}", gap, 1e-6,
                "tests/test_bohm_velocity.py::test_matches_wavefunction_route_at_start",
            )
            xs = np.linspace(-0.8, 0.8, cfg.diagonal_points) * band["orbit"].amplitude
            rho = ledger.call("density_matrix_from_wigner", field, system, xs, xs)
            ledger.gate(
                f"density_diagonal.{band['label']}",
                float(np.max(np.abs(rho - np.abs(psi(xs)) ** 2))), 1e-5,
                "tests/test_phase_space.py::test_diagonal_recovers_position_density",
            )
    for i in cfg.propagated:
        band = inp["bands"][i]
        for factor in cfg.t_over_tc:
            with ledger.tracer.span(f"propagate.{band['label']}"):
                prop = ledger.call("integrate_propagator", inp["coeffs"], factor * band["t_c"])
                _gate_mass(ledger, ledger.call("propagate_wigner", prop, fields[i], system))
    source = "tests/test_quadratic_master.py::test_gaussian_moment_oracle"
    start = inp["oracle_field"]
    for t, mean_t, cov_t in inp["references"]:
        with ledger.tracer.span("gaussian_oracle"):
            prop = ledger.call("integrate_propagator", inp["oracle_coeffs"], t)
            out = ledger.call("propagate_wigner", prop, start, system)
            _gate_mass(ledger, out)
            mass_err = abs(out.normalization() - 1.0)
            ledger.reading("quadratic_master.gaussian_oracle.mass_err_max", mass_err)
            if t in cfg.oracle_mass_times:
                ledger.gate(f"oracle.mass.t{t:g}", mass_err, 1e-6, source)
            mean, cov = out.mean_and_covariance()
            moments = max(np.max(np.abs(mean - mean_t)), np.max(np.abs(cov - cov_t)))
            ledger.gate(f"oracle.moments.t{t:g}", float(moments), 1e-4, source)
            expected = _gaussian_values(out.x_grid, out.p_grid, mean_t, cov_t)
            rel = float(np.max(np.abs(out.values - expected)) / expected.max())
            ledger.reading("quadratic_master.gaussian_oracle.max_rel_err", rel)
            ledger.gate(f"oracle.field.t{t:g}", rel, 1e-3, source)


# --------------------------------------------------------------------------
# bath_route: the explicit-bath route only; never calls phase_space or
# quadratic_master inside the pass


@dataclass(frozen=True)
class BathRoute:
    # (a) ohmic memory kernel
    ohmic_t_max: float = 2.65
    # (b) discrete bath from the oracle parameters of the moment test
    params: tuple = (1e-2, 10.0, 100.0)
    n_modes: int = 512
    step: float = 1.0 / 320.0  # lands +-5, +-10, +-20 on solver nodes
    t_max: float = 20.0
    block_times: tuple = (5.0, 10.0, 20.0)
    # (c) canonical band conditioned on slices of a canonical-parameter bath
    band: tuple = (50, 8)
    band_params: tuple = (1e-4, 1e3, 1e3)
    band_modes: int = 512
    cond_times: tuple = (0.5, 2.0, 4.0)
    draws: int = 8
    positions: int = 41
    jitter: float = 0.1  # slice jitter in units of each mode's coherent width


def setup_bath(api, cfg: BathRoute, seed: int):
    system = api.OscillatorSystemSpec()
    gamma, kt, cutoff = cfg.params
    params = api.CaldeiraLeggettParams(damping_rate=gamma, thermal_energy=kt, cutoff=cutoff)
    # Reference smearing matrices of the reduced route, built here so that the
    # pass itself never enters quadratic_master.
    cl_coeffs = api.assemble_cl_coefficients(system, params)
    cl_m = {t: api.integrate_propagator(cl_coeffs, t).m for t in cfg.block_times}
    level, width = cfg.band
    state = api.build_energy_band_state(level, width)
    orbit = api.classical_orbit(state, system)
    g2, kt2, cutoff2 = cfg.band_params
    rng = np.random.default_rng(seed)
    n_slices = len(cfg.cond_times) * 2 * cfg.draws
    return dict(
        system=system,
        params=params,
        cl_m=cl_m,
        state=state,
        orbit=orbit,
        wkb=api.wkb_amplitudes(state, orbit, system),
        band_params=api.CaldeiraLeggettParams(
            damping_rate=g2, thermal_energy=kt2, cutoff=cutoff2
        ),
        sample_seeds=rng.integers(0, 2**32, size=n_slices).tolist(),
        jitter=rng.standard_normal((n_slices, cfg.positions, cfg.band_modes)),
        x=np.linspace(-0.8, 0.8, cfg.positions) * orbit.amplitude,
    )


def pass_bath(ledger: Ledger, cfg: BathRoute, inp) -> None:
    api, system = ledger.api, inp["system"]
    params = inp["params"]
    with ledger.tracer.span("discretize"):
        bath = ledger.call("discretize_spectral_density", params, system, cfg.n_modes)
        bare = ledger.call("counterterm_bare_frequency", bath, system)
        coupled = dataclasses.replace(system, bare_frequency=bare)
    with ledger.tracer.span("ohmic_kernel"):
        ohmic = api.SpectralDensity.from_ohmic(system, params.damping_rate, params.cutoff)
        ledger.call("solve_g_kernel", ohmic, bare, cfg.ohmic_t_max, cfg.step)
    with ledger.tracer.span("exact_blocks"):
        table = ledger.call(
            "solve_g_kernel", api.SpectralDensity.from_bath(bath), bare, cfg.t_max,
            cfg.step, mass=system.mass,
        )
        for t in cfg.block_times:
            forward = ledger.call(
                "exact_bath_matrices", bath, coupled, table, t, include_d_corrections=True
            )
            backward = ledger.call(
                "exact_bath_matrices", bath, coupled, table, -t, include_d_corrections=True
            )
            residuals = ledger.call("reversibility_residuals", forward, backward)
            ledger.reading(
                "bath_dynamics.reversibility_residuals.max", max(residuals.values())
            )
            m_bath = ledger.call("reduced_M_from_bath", forward, bath)
            m_cl = inp["cl_m"][t]
            ledger.reading(
                "bath_dynamics.reduced_M_from_bath.gap_xp",
                abs(m_bath[0, 1] - m_cl[0, 1]) / abs(m_cl[0, 1]),
            )

    state, orbit, wkb = inp["state"], inp["orbit"], inp["wkb"]
    with ledger.tracer.span("conditional"):
        band_bath = ledger.call(
            "discretize_spectral_density", inp["band_params"], system, cfg.band_modes
        )
        continuum = api.SpectralDensity.from_ohmic(
            system, inp["band_params"].damping_rate, inp["band_params"].cutoff
        )
        widths = band_bath.coherent_widths
        p_cl = orbit.classical_momentum(inp["x"])
        velocities = []
        slot = 0
        for t in cfg.cond_times:
            with warnings.catch_warnings():
                # the canonical-parameter bath sits above the weak-coupling
                # regime bound; the kernel is still built from these blocks
                warnings.simplefilter("ignore", CouplingStrengthWarning)
                props = ledger.call(
                    "weak_coupling_matrices", band_bath, system, t, small_angle=True
                )
            for spectral in (None, continuum):
                for _ in range(cfg.draws):
                    sample = ledger.call("sample_bath", band_bath, inp["sample_seeds"][slot])
                    kernel = ledger.call(
                        "conditional_kernel", props, band_bath, sample, t, spectral=spectral
                    )
                    for j, x in enumerate(inp["x"]):
                        bath_slice = (
                            kernel.conditional_peaks(x, p_cl[j])
                            + cfg.jitter * widths * inp["jitter"][slot, j]
                        )
                        try:
                            velocities.append(
                                ledger.call(
                                    "conditional_velocity", state, orbit, wkb, kernel, x,
                                    bath_slice,
                                )
                            )
                        except StageFailed:
                            pass
                    slot += 1
            ledger.call("classicality_report", system, orbit, inp["band_params"], t)
        ledger.gate(
            "conditional_velocity.nonfinite",
            float(np.count_nonzero(~np.isfinite(velocities))), 0.0,
            "bath_dynamics/conditional.py conditional_velocity returns a float velocity",
        )


WORKLOADS = {
    "canonical_band": (CanonicalBand(), setup_canonical, pass_canonical),
    "band_ladder": (BandLadder(), setup_ladder, pass_ladder),
    "bath_route": (BathRoute(), setup_bath, pass_bath),
}
