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

import math
from dataclasses import dataclass, field

import numpy as np

from .._guards import (
    finite_array,
    require_close,
    require_finite,
    require_nonnegative,
    require_orbit_system,
    require_positive,
)
from ..bohm_velocity import initial_velocity
from ..bohm_velocity.decomposition import (
    MInverseParams,
    SemiclassicalDecomposition,
    _position_spread,
    _require_interior,
    _require_margins,
    _spread_margin,
)
from ..errors import NumericalFailureError, UndefinedVelocityError
from ..phase_space import (
    ClassicalOrbit,
    EnergyBandState,
    OscillatorSystemSpec,
    WkbAmplitudes,
    band_wavefunction,
)
from ..quadratic_master import CaldeiraLeggettParams
from .matrices import BathPropagators
from .sampling import CoherentBathSample
from .spectral import BathSpec, SpectralDensity, _require_same_modes

__all__ = [
    "ConditionalKernel",
    "cl_m_tilde_asymptote",
    "cl_sigma3_squared_asymptote",
    "conditional_kernel",
    "conditional_velocity",
    "m_tilde_matrix",
    "sigma3_squared",
]

# time reversal of a 2x2 transfer block negates its off-diagonal entries
_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])
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
    ``t`` must be finite and non-negative (``ValueError``).
    """
    require_nonnegative("t", t)
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
    ``X = cutoff t`` (:meth:`SpectralDensity.slice_integrals`). ``t`` must
    be finite and non-negative (``ValueError``).
    """
    require_nonnegative("t", t)
    return float(2.0 / (system.hbar * system.mass**2) * spectral.slice_integrals(t)[3])


def cl_m_tilde_asymptote(
    cl_params: CaldeiraLeggettParams, system: OscillatorSystemSpec, t: float
) -> np.ndarray:
    """Log-cutoff asymptote of the smearing matrix for the ohmic density.

    Valid for ``ln(cutoff t) >> 1``. The additive constants are the exact
    tails of the cutoff-oscillation integrals (combinations of the Euler
    constant and ``ln 2``); dropping them costs several percent even at
    ``ln(cutoff t) = 5``. ``t`` must be finite and positive (``ValueError``).
    """
    require_positive("t", t)
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
    """Log-cutoff asymptote of the slice precision for the ohmic density; ``t``
    must be finite and positive (``ValueError``)."""
    require_positive("t", t)
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

    Each mode's most likely slice position is affine in the central point,
    ``peak_offset - x_response x - p_response p``. Construction also stores,
    once per kernel, the slice scale ``m omega / hbar`` and the
    x-independent ``q2`` that :meth:`slice_quadratic` reads on every call,
    and, when ``minv`` is set, the position spread whose margin
    :func:`~bohmdec.bohm_velocity.validity_window` reports.

    Attributes
    ----------
    system : OscillatorSystemSpec
    bath : BathSpec
    peak_offset : numpy.ndarray
        Position of each mode's freely evolved coherent-state center,
        shape ``(N,)``.
    x_response, p_response : numpy.ndarray
        Sensitivity of each mode's conditional peak position to the central
        position and momentum, shape ``(N,)``.
    minv : MInverseParams or None
        Inverse of the conditional smearing matrix (:func:`m_tilde_matrix`);
        ``None`` when the matrix is all zeros (no modes or couplings, or t = 0).

    A per-mode row of any other shape than ``(N,)`` raises ``ValueError``.
    """

    system: OscillatorSystemSpec
    bath: BathSpec
    peak_offset: np.ndarray
    x_response: np.ndarray
    p_response: np.ndarray
    minv: MInverseParams | None
    _slice_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _q2: float = field(init=False, repr=False, compare=False)
    _spread: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("peak_offset", "x_response", "p_response"):
            if np.shape(getattr(self, name)) != (self.bath.n_modes,):
                raise ValueError(f"{name} must have shape ({self.bath.n_modes},), one per mode")
        scale = self.bath.masses * self.bath.frequencies / self.bath.hbar
        object.__setattr__(self, "_slice_scale", scale)
        object.__setattr__(self, "_q2", float(np.dot(scale, self.p_response**2)))
        spread = math.nan if self.minv is None else _position_spread(self.minv, self.system)
        object.__setattr__(self, "_spread", spread)

    @property
    def degenerate(self) -> bool:
        """Whether the smearing matrix is all zeros (no modes or couplings, or t = 0)."""
        return self.minv is None

    def conditional_peaks(self, x: float, p: float) -> np.ndarray:
        """Most likely slice position of every mode given the central point.

        ``x`` and ``p`` must be finite (``ValueError``).
        """
        require_finite("x", x)
        require_finite("p", p)
        return self.peak_offset - self.x_response * x - self.p_response * p

    def slice_quadratic(
        self, bath_slice: np.ndarray, x: float
    ) -> tuple[float, float, float]:
        """Coefficients ``(q0, q1, q2)`` of the slice weight exponent.

        The Gaussian slice factor contributes
        ``exp[-(q0 + q1 p + q2 p^2)]`` to every momentum integrand at fixed
        central position ``x``; ``q2`` equals the slice precision
        :func:`sigma3_squared` up to discretization of the spectral integral.
        ``bath_slice`` needs one finite position per mode and ``x`` must be
        finite (``ValueError``).
        """
        require_finite("x", x)
        if np.shape(bath_slice) != (self.bath.n_modes,):
            raise ValueError(
                f"bath_slice must supply one position per mode "
                f"({self.bath.n_modes}), got shape {np.shape(bath_slice)}"
            )
        bath_slice = finite_array("bath_slice", bath_slice)
        const = bath_slice - self.peak_offset + self.x_response * x
        q0 = float(np.dot(self._slice_scale, const**2))
        q1 = 2.0 * float(np.dot(self._slice_scale, const * self.p_response))
        return q0, q1, self._q2


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
        Must be of kind ``"small_angle"``: the kernel matrix drops the slow
        central oscillation, and mixing regimes would silently break the
        branch algebra.
    bath : BathSpec
        The blocks' bath, at any temperature (other modes: ``ValueError``).
    sample : CoherentBathSample
    t : float
        Must be finite and match the time the blocks were assembled at.
    spectral : SpectralDensity, optional
        Density to integrate the smearing matrix over.
        Defaults to the line spectrum of ``bath``; pass the continuum parent
        density when the modes discretize one and the oscillation period
        ``2 pi / t`` is finer than the mode spacing, where the line sum
        aliases.

    Returns
    -------
    ConditionalKernel
        Degenerate exactly when the smearing matrix is all zeros; any other
        matrix without a valid inverse raises ``NumericalFailureError``.
    """
    require_finite("t", t)
    if props.kind != "small_angle":
        raise ValueError("conditioning requires small-angle weak-coupling blocks")
    require_close("t does not match the time of the supplied blocks", props.time, t)
    _require_same_modes(bath, props.bath, "the blocks were built for")
    if sample.n_modes != bath.n_modes:
        raise ValueError("bath and sample disagree on the mode count")

    # position row of each mode's free rotation, applied to the sampled
    # center and to the time-reversed center-to-mode block
    row = props.d_free[:, 0]
    peak_offset = np.einsum("rj,rj->r", row, sample.vectors())
    x_response, p_response = np.einsum("rj,rjk->kr", row, props.c * _FLIP, order="C")

    if spectral is None:
        spectral = SpectralDensity.from_bath(bath)
    m_tilde = m_tilde_matrix(spectral, props.system, t)
    try:
        minv = MInverseParams.from_m_matrix(m_tilde) if m_tilde.any() else None
    except ValueError as exc:
        raise NumericalFailureError(
            f"the conditional smearing matrix at t = {t:g} has no usable inverse: {exc}"
        ) from exc

    return ConditionalKernel(
        system=props.system,
        bath=bath,
        peak_offset=peak_offset,
        x_response=x_response,
        p_response=p_response,
        minv=minv,
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
    combined in the log domain.

    Per kernel, the slice rows, ``q2`` and the position-spread scale are
    stored when the kernel is built (:class:`ConditionalKernel`). Per point,
    numpy forms only ``q0`` and ``q1`` from the slice
    (:meth:`ConditionalKernel.slice_quadratic`) and the sum over the band in
    :meth:`WkbAmplitudes.amplitudes`. The rest runs on Python floats: the
    branch widths and the three terms come from the decomposition's
    elementwise formulas, which take their functions from :mod:`math` for a
    float, and the terms are combined in the log domain, so no per-call
    array of terms is built. The velocity is the same algebra's on the
    array terms to round-off: ``math`` and numpy may differ in the last bit
    of a ``log`` or ``arcsin``.

    The position-spread margin of the decomposition and the turning-zone
    distance gate the evaluation; the chord margin of
    :func:`~bohmdec.bohm_velocity.validity_window` does not, since the
    interference contribution it controls is carried explicitly as a bounded
    term. Branch amplitudes are those of the initial band state: in the
    regime where the kernel applies the slow central rotation is absorbed
    into the conditioning.

    Parameters
    ----------
    state : EnergyBandState
        Initial band state; ``wkb`` must be built for it (an equal state
        built apart counts). It is used directly only when the kernel is
        degenerate and the velocity falls back to the pure-state value.
    orbit : ClassicalOrbit
        Built on ``kernel.system``'s mass, renormalized frequency and hbar.
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
    ValueError
        If ``x`` or any slice position is NaN or inf, ``orbit`` is not built
        on the kernel's oscillator, ``wkb`` is not built for ``state``, or
        (unless the kernel is degenerate) ``wkb`` is not built on ``orbit``.
    DomainValidityError
        Outside the allowed region, inside the turning zone, or when the
        position-spread margin fails.
    UndefinedVelocityError
        When every branch is absent at ``x`` or the slice weight suppresses
        all of them below the representable floor.
    """
    system = kernel.system
    x_eval = float(x)
    # also rejects a non-finite x or slice when the kernel is degenerate
    q0, q1, q2 = kernel.slice_quadratic(bath_slice, x_eval)

    require_orbit_system(system, orbit)
    # identity first, as for the orbit: the velocity is called once per point
    if wkb.state is not state and wkb.state != state:
        raise ValueError(f"wkb belongs to another state: {wkb.state!r}, not {state!r}")

    if kernel.degenerate:
        sampler = band_wavefunction(state, system)
        return float(initial_velocity(sampler, x_eval, system))

    _require_interior(x_eval, orbit)
    amplitude = orbit.amplitude
    # length scale of the quadratic turning zone at the orbit edge
    zone = (
        system.hbar**2 / (2.0 * system.mass**2 * system.renormalized_frequency**2 * amplitude)
    ) ** (1.0 / 3.0)
    margins = {
        "position_spread": _spread_margin(amplitude, kernel._spread),
        "turning_zone": (amplitude - abs(x_eval)) / zone,
    }
    _require_margins("conditional decomposition", margins)

    mod_plus, mod_minus = (float(abs(g)) for g in wkb.amplitudes(x_eval))
    decomp = SemiclassicalDecomposition(kernel.minv, orbit, wkb)
    terms = decomp._terms(x_eval, mod_plus * mod_plus, mod_minus * mod_minus)

    # Term k times the slice weight is exp(const - curvature p^2 + slope p).
    # The log mass cancels terms far larger than itself, so it keeps the
    # steps and order of the array form, with squares as products.
    log_masses, means = [], []
    # the largest branch mass any slice could leave (its weight centred on the
    # branch); the representable floor is measured from it
    reference = -math.inf
    for k, (log_weight, centre, precision) in enumerate(terms):
        curvature = precision + q2
        slope = 2.0 * precision * centre - q1
        log_spread = 0.5 * math.log(math.pi / curvature)
        log_masses.append(
            log_weight - precision * (centre * centre) - q0
            + slope * slope / (4.0 * curvature) + log_spread
        )
        means.append(slope / (2.0 * curvature))
        if k < 2:
            reference = max(reference, log_weight + log_spread)
    if reference == -math.inf:
        raise UndefinedVelocityError(
            f"no branch density at x = {x_eval:g}; the conditioned velocity is undefined"
        )
    top = max(log_masses)
    if top < reference - _LOG_MASS_FLOOR:
        raise UndefinedVelocityError(
            "the bath slice suppresses every branch below the representable floor"
        )
    weights = [math.exp(log_mass - top) for log_mass in log_masses]
    momentum = sum(w * mean for w, mean in zip(weights, means)) / sum(weights)
    return float(momentum) / system.mass
