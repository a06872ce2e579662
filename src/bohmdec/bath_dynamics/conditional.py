"""Conditional propagation: smearing kernel and slice-conditioned velocity.

Conditioning the evolved global Gaussian on a position slice of every mode
leaves the central oscillator described by the initial distribution smeared
with a kernel matrix that is strictly smaller than the traced-out one: the
slice retains which-path information. In the weak-coupling, small-angle
regime the kernel matrix is a spectral integral with the slow central
oscillation dropped, each mode's conditional peak is an affine function of
the central phase-space point, and the conditioned distribution at a slice
is a sum of two branch Gaussians in momentum plus a bounded interference
term. The velocity then follows from exact Gaussian moments; no momentum
grid is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bohm_velocity import (
    MInverseParams,
    SemiclassicalDecomposition,
    initial_velocity,
    validity_window,
)
from ..errors import DomainValidityError, UndefinedVelocityError
from ..phase_space import (
    ClassicalOrbit,
    EnergyBandState,
    OscillatorSystemSpec,
    WkbAmplitudes,
    band_wavefunction,
)
from ..quadratic_master import CaldeiraLeggettParams
from .matrices import BathPropagators, _flip_time
from .sampling import CoherentBathSample
from .spectral import BathSpec, SpectralDensity

__all__ = [
    "ConditionalKernel",
    "cl_m_tilde_asymptote",
    "cl_sigma3_squared_asymptote",
    "conditional_kernel",
    "conditional_velocity",
    "m_tilde_matrix",
    "sigma3_squared",
]

_ENVELOPE_INCLUSION = 1e-6
_LOG_MASS_FLOOR = 700.0


def m_tilde_matrix(
    spectral: SpectralDensity, system: OscillatorSystemSpec, t: float
) -> np.ndarray:
    """Conditional smearing matrix at time ``t``.

    The entries are spectral integrals of ``(omega t - sin omega t)`` and
    ``(1 - cos omega t)`` combinations weighted by inverse powers of the mode
    frequency (:meth:`SpectralDensity.slice_integrals`). For the ohmic
    density they reduce, with ``X = cutoff t``, to
    ``M_xx = 4 hbar gamma t^2 Q(X) / (pi m)``, ``M_xp = -4 hbar gamma t R(X) / pi``
    and ``M_pp = 4 hbar m gamma P(X) / pi``; both the closed forms and a line
    sum keep the ``t -> 0`` entry orders (``t^6``, ``t^5``, ``t^4``) clean.
    """
    if t < 0.0:
        raise ValueError("the conditional kernel is assembled forward in time")
    hbar = system.hbar
    m = system.mass
    jxx, jxp, jpp, _ = spectral.slice_integrals(t)
    xx = 2.0 * hbar / m**2 * jxx
    xp = -2.0 * hbar / m * jxp
    pp = 2.0 * hbar * jpp
    return np.array([[xx, xp], [xp, pp]])


def sigma3_squared(
    spectral: SpectralDensity, system: OscillatorSystemSpec, t: float
) -> float:
    """Slice-information precision: the momentum weight the bath slice adds.

    For the ohmic density this is ``4 gamma t^2 S(X) / (pi hbar m)`` with
    ``X = cutoff t`` (:meth:`SpectralDensity.slice_integrals`).
    """
    if t < 0.0:
        raise ValueError("the conditional kernel is assembled forward in time")
    return float(2.0 / (system.hbar * system.mass**2) * spectral.slice_integrals(t)[3])


def cl_m_tilde_asymptote(
    cl_params: CaldeiraLeggettParams, system: OscillatorSystemSpec, t: float
) -> np.ndarray:
    """Log-cutoff asymptote of the smearing matrix for the ohmic density.

    Valid for ``ln(cutoff t) >> 1``. The additive constants are the exact
    tails of the cutoff-oscillation integrals (combinations of the Euler
    constant and ``ln 2``); dropping them costs several percent even at
    ``ln(cutoff t) = 5``.
    """
    log_cut = np.log(cl_params.cutoff * t)
    if log_cut <= 0.0:
        raise ValueError("the log asymptote needs cutoff * t > 1")
    hbar = system.hbar
    m = system.mass
    gamma = cl_params.damping_rate
    euler = np.euler_gamma
    xx = 4.0 * hbar * gamma * t**2 / (np.pi * m) * (log_cut + euler - np.log(2.0) - 0.5)
    xp = -4.0 * hbar * gamma * t / np.pi * (log_cut + euler - np.log(2.0))
    pp = 4.0 * hbar * m * gamma / np.pi * 1.5 * (log_cut + euler - np.log(2.0) / 3.0)
    return np.array([[xx, xp], [xp, pp]])


def cl_sigma3_squared_asymptote(
    cl_params: CaldeiraLeggettParams, system: OscillatorSystemSpec, t: float
) -> float:
    """Log-cutoff asymptote of the slice precision for the ohmic density."""
    log_cut = np.log(cl_params.cutoff * t)
    if log_cut <= 0.0:
        raise ValueError("the log asymptote needs cutoff * t > 1")
    constant = np.log(2.0) + np.euler_gamma - 1.0
    return float(
        2.0
        * cl_params.damping_rate
        * t**2
        / (np.pi * system.hbar * system.mass)
        * (log_cut + constant)
    )


@dataclass(frozen=True)
class ConditionalKernel:
    """Slice-conditioned smearing data at one time.

    Attributes
    ----------
    time : float
    system : OscillatorSystemSpec
    bath : BathSpec
    sample : CoherentBathSample
        Coherent-state centers the conditioning is relative to.
    rotated_means : numpy.ndarray
        Freely evolved mode centers, shape ``(N, 2)``.
    response : numpy.ndarray
        Sensitivity of each mode's conditional peak to the central point,
        shape ``(N, 2, 2)``; row 0 is the peak position, row 1 its momentum.
    m_tilde : numpy.ndarray
        Conditional smearing matrix, 2x2.
    minv : MInverseParams or None
        Validated inverse-kernel parameters; ``None`` when the kernel is
        degenerate (no modes, or zero time).
    sigma3_sq : float
        Momentum precision contributed by a consistent slice.
    offset : numpy.ndarray
        Smearing-center offset, reported for diagnosis; the kernel itself is
        centred with the offset zeroed.
    """

    time: float
    system: OscillatorSystemSpec
    bath: BathSpec
    sample: CoherentBathSample
    rotated_means: np.ndarray
    response: np.ndarray
    m_tilde: np.ndarray
    minv: MInverseParams | None
    sigma3_sq: float
    offset: np.ndarray

    @property
    def degenerate(self) -> bool:
        """Whether the kernel has no inverse (no modes, or zero time)."""
        return self.minv is None

    @property
    def offset_norm(self) -> float:
        return float(np.linalg.norm(self.offset))

    def conditional_peaks(self, x: float, p: float) -> np.ndarray:
        """Most likely slice position of every mode given the central point."""
        return (
            self.rotated_means[:, 0]
            - self.response[:, 0, 0] * x
            - self.response[:, 0, 1] * p
        )

    def slice_quadratic(
        self, bath_slice: np.ndarray, x: float
    ) -> tuple[float, float, float]:
        """Coefficients ``(q0, q1, q2)`` of the slice weight exponent.

        The Gaussian slice factor contributes
        ``exp[-(q0 + q1 p + q2 p^2)]`` to every momentum integrand at fixed
        central position ``x``; ``q2`` equals the slice precision
        ``sigma3_sq`` up to discretization of the spectral integral.
        """
        bath_slice = np.asarray(bath_slice, dtype=float)
        if bath_slice.shape != (self.bath.n_modes,):
            raise ValueError(
                f"bath_slice must supply one position per mode "
                f"({self.bath.n_modes}), got shape {bath_slice.shape}"
            )
        scale = self.bath.masses * self.bath.frequencies / self.bath.hbar
        const = bath_slice - self.rotated_means[:, 0] + self.response[:, 0, 0] * x
        linear = self.response[:, 0, 1]
        q0 = float(np.dot(scale, const**2))
        q1 = 2.0 * float(np.dot(scale, const * linear))
        q2 = float(np.dot(scale, linear**2))
        return q0, q1, q2


def conditional_kernel(
    props: BathPropagators,
    bath: BathSpec,
    sample: CoherentBathSample,
    t: float,
    spectral: SpectralDensity | None = None,
) -> ConditionalKernel:
    """Assemble the slice-conditioning data from weak-coupling blocks.

    Parameters
    ----------
    props : BathPropagators
        Must be weak-coupling blocks with the small-angle flag: the kernel
        matrix drops the slow central oscillation, and mixing regimes would
        silently break the branch algebra.
    bath : BathSpec
    sample : CoherentBathSample
    t : float
        Must match the time the blocks were assembled at.
    spectral : SpectralDensity, optional
        Density to integrate the smearing matrix and slice precision over.
        Defaults to the line spectrum of ``bath``; pass the continuum parent
        density when the modes discretize one and the oscillation period
        ``2 pi / t`` is finer than the mode spacing, where the line sum
        aliases.

    Returns
    -------
    ConditionalKernel
    """
    if props.mode != "weak_coupling" or not props.small_angle:
        raise ValueError(
            "conditioning requires weak-coupling blocks with the small-angle flag"
        )
    if abs(t - props.time) > 1e-12 * max(1.0, abs(t)):
        raise ValueError("t does not match the time of the supplied blocks")
    if sample.n_modes != bath.n_modes or props.n_modes != bath.n_modes:
        raise ValueError("bath, sample and blocks disagree on the mode count")

    d_free = props.d_free
    rotated = np.einsum("rij,rj->ri", d_free, sample.vectors())
    response = np.einsum("rij,rjk->rik", d_free, _flip_time(props.c))
    offset = np.einsum("rij,rj->i", _flip_time(props.b), rotated)

    if spectral is None:
        spectral = SpectralDensity.from_bath(bath)
    m_tilde = m_tilde_matrix(spectral, props.system, t)
    try:
        minv = MInverseParams.from_m_matrix(m_tilde)
    except ValueError:
        minv = None

    return ConditionalKernel(
        time=float(t),
        system=props.system,
        bath=bath,
        sample=sample,
        rotated_means=rotated,
        response=response,
        m_tilde=m_tilde,
        minv=minv,
        sigma3_sq=sigma3_squared(spectral, props.system, t),
        offset=offset,
    )


def _turning_zone_length(orbit: ClassicalOrbit, system: OscillatorSystemSpec) -> float:
    """Length scale of the quadratic turning zone at the orbit edge."""
    return float(
        (
            system.hbar**2
            / (2.0 * system.mass**2 * system.renormalized_frequency**2 * orbit.amplitude)
        )
        ** (1.0 / 3.0)
    )


def conditional_velocity(
    state: EnergyBandState,
    orbit: ClassicalOrbit,
    wkb: WkbAmplitudes,
    kernel: ConditionalKernel,
    x: float,
    bath_slice: np.ndarray,
) -> float:
    """Guidance velocity at ``x`` conditioned on a position slice of the modes.

    The conditioned distribution is the decomposition's three momentum
    Gaussians (:meth:`SemiclassicalDecomposition.gaussian_terms`: the two
    branches and the interference term at its envelope bound, unit phase)
    times the slice weight ``exp[-(q0 + q1 p + q2 p^2)]``. Completing the
    square once for all three leaves exact Gaussians in momentum, so the
    flux and density integrals reduce to closed-form masses and means,
    combined in the log domain. The envelope is dropped when its peak is
    below ``1e-6`` of the larger branch peak.

    The position-spread margin of the decomposition and the turning-zone
    distance gate the evaluation; the chord margin is computed for diagnosis
    but does not gate, since the interference contribution it controls is
    carried explicitly as a bounded term. Branch amplitudes are those of the
    initial band state: in the regime where the kernel applies the slow
    central rotation is absorbed into the conditioning.

    Parameters
    ----------
    state : EnergyBandState
        Initial band state; used directly only when the kernel is degenerate
        and the velocity falls back to the pure-state value.
    orbit : ClassicalOrbit
    wkb : WkbAmplitudes
        Branch amplitudes of ``state`` on ``orbit``.
    kernel : ConditionalKernel
    x : float
    bath_slice : array_like
        One slice position per mode.

    Returns
    -------
    float

    Raises
    ------
    DomainValidityError
        Outside the allowed region, inside the turning zone, or when the
        position-spread margin fails.
    UndefinedVelocityError
        When every branch is absent at ``x`` or the slice weight suppresses
        all of them below the representable floor.
    """
    system = kernel.system
    mass = system.mass

    if kernel.degenerate:
        sampler = band_wavefunction(state, system)
        return float(initial_velocity(sampler, x, system))

    x_eval = float(x)
    amplitude = orbit.amplitude
    if abs(x_eval) >= amplitude:
        raise DomainValidityError(
            f"x = {x_eval:g} lies outside the allowed region |x| < {amplitude:g}"
        )
    zone = _turning_zone_length(orbit, system)
    turning_margin = (amplitude - abs(x_eval)) / zone
    margins = validity_window(kernel.minv, orbit, system).margins
    if margins["position_spread"] < 1.0 or turning_margin < 1.0:
        failing = {"position_spread": margins["position_spread"], "turning_zone": turning_margin}
        failing = {k: v for k, v in failing.items() if v < 1.0}
        raise DomainValidityError(
            "conditional decomposition margins below 1: "
            + ", ".join(f"{k} = {v:.3g}" for k, v in failing.items())
        )

    decomp = SemiclassicalDecomposition(kernel.minv, orbit, wkb)
    log_weight, centre, precision = (
        term[:, 0] for term in decomp.gaussian_terms(x_eval)
    )
    q0, q1, q2 = kernel.slice_quadratic(np.asarray(bath_slice, dtype=float), x_eval)

    # Term k times the slice weight is exp(const - curvature p^2 + slope p).
    curvature = precision + q2
    slope = 2.0 * precision * centre - q1
    log_peak = log_weight - precision * centre**2 - q0 + slope**2 / (4.0 * curvature)
    log_mass = log_peak + 0.5 * np.log(np.pi / curvature)
    # the largest branch mass any slice could leave (its weight centred on the
    # branch); the representable floor is measured from it
    reference = float(np.max(log_weight[:2] + 0.5 * np.log(np.pi / curvature[:2])))
    if reference == -np.inf:
        raise UndefinedVelocityError(
            f"no branch density at x = {x_eval:g}; the conditioned velocity is undefined"
        )
    if log_peak[2] <= log_peak[:2].max() + np.log(_ENVELOPE_INCLUSION):
        log_mass[2] = -np.inf

    top = float(log_mass.max())
    if top < reference - _LOG_MASS_FLOOR:
        raise UndefinedVelocityError(
            "the bath slice suppresses every branch below the representable floor"
        )
    weights = np.exp(log_mass - top)
    momentum = float(np.dot(weights, slope / (2.0 * curvature)) / weights.sum())
    return momentum / mass
