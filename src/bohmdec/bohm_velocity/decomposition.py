"""Two-branch decomposition of a smeared band-state distribution.

After the quadratic master equation has smeared a band state, the phase-space
distribution splits into a nonnegative part riding the two classical momentum
branches plus a rapidly oscillating interference part. This module evaluates
the branch widths, the interference envelope, and the validity window of that
split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .._elementwise import elementwise
from .._guards import (
    finite_array,
    require_finite,
    require_nonnegative,
    require_orbit_system,
    require_positive,
    require_symmetric,
)
from ..errors import DomainValidityError
from ..phase_space.system import ClassicalOrbit, OscillatorSystemSpec
from ..phase_space.wkb import WkbAmplitudes
from ..quadratic_master.coefficients import CaldeiraLeggettParams
from .timescales import timescales

__all__ = [
    "BranchWidths",
    "MInverseParams",
    "SemiclassicalDecomposition",
    "ValidityReport",
    "semiclassical_decomposition",
    "validity_window",
]


# Relative accuracy an inverse smearing matrix is held to: the consistency of
# its determinant, and the round-off bound on the determinant it inverts.
_DET_RTOL = 1e-10


@dataclass(frozen=True)
class MInverseParams:
    """Entries of the inverse smearing matrix, ``((a, c), (c, b))``.

    ``delta`` is its determinant. Consistency ``delta = a b - c^2`` is
    enforced to 1e-10 relative; every field must be finite and ``b`` and
    ``delta`` positive, which makes the quadratic form positive definite.
    """

    a: float
    c: float
    b: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("a", "c"):
            require_finite(f"MInverseParams.{name}", getattr(self, name))
        for name in ("b", "delta"):
            require_positive(f"MInverseParams.{name}", getattr(self, name))
        product = self.a * self.b - self.c**2
        if abs(product - self.delta) > _DET_RTOL * abs(self.delta):
            raise ValueError(
                "MInverseParams determinant mismatch: a*b - c^2 = "
                f"{product!r} but delta = {self.delta!r}"
            )

    @classmethod
    def from_m_matrix(cls, m: np.ndarray) -> "MInverseParams":
        """Invert a symmetric positive-definite smearing matrix.

        The determinant ``m00 m11 - m01^2`` is the difference of two products
        each rounded by ``eps`` of itself, so its relative error may reach
        ``eps m00 m11 / det``. A matrix for which that bound exceeds 1e-10,
        the accuracy the inverse is held to, raises ``ValueError``: the
        line-sum smearing matrix of a 512-mode bath at ``t = 1e-6`` has
        ``m00 m11 / det = 5.8e15`` and a float determinant 2.8 times its
        exact value.
        """
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("smearing matrix must be 2x2")
        require_symmetric(m)
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if det <= 0.0 or m[0, 0] <= 0.0:
            raise ValueError(
                "smearing matrix must be positive definite to invert; "
                f"det = {det!r}"
            )
        cancellation = float(np.finfo(float).eps * m[0, 0] * m[1, 1] / det)
        if cancellation > _DET_RTOL:
            raise ValueError(
                f"smearing matrix determinant {det!r} is lost to cancellation: "
                f"eps m00 m11 / det = {cancellation:.3g} exceeds {_DET_RTOL:g}"
            )
        return cls(
            a=float(m[1, 1] / det),
            c=float(-m[0, 1] / det),
            b=float(m[0, 0] / det),
            delta=1.0 / det,
        )


@dataclass(frozen=True)
class ValidityReport:
    """Margins of the decomposition's asymptotic inequalities.

    Each margin is the ratio by which its inequality holds; 1 is the
    boundary. ``passed`` requires every margin to be at least 1 and
    ``strict_passed`` at least 10, the conventional reading of "much
    smaller than". Both are read from ``margins``, which is stored as a
    read-only view.
    """

    margins: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "margins", MappingProxyType(self.margins))

    @property
    def passed(self) -> bool:
        return all(v >= 1.0 for v in self.margins.values())

    @property
    def strict_passed(self) -> bool:
        return all(v >= 10.0 for v in self.margins.values())


def _require_margins(what: str, margins: Mapping[str, float]) -> None:
    """``DomainValidityError`` naming every margin below 1, NaN included."""
    failing = ", ".join(f"{k} = {v:.3g}" for k, v in margins.items() if not v >= 1.0)
    if failing:
        raise DomainValidityError(
            f"{what} requested outside its validity window; margins below 1: {failing}"
        )


def _require_interior(x: float | np.ndarray, orbit: ClassicalOrbit) -> None:
    """``DomainValidityError`` unless every ``|x|`` is below the orbit amplitude.
    NaN passes: each caller has rejected it with ``ValueError`` already."""
    reach = abs(x) if isinstance(x, float) else float(np.abs(x).max(initial=0.0))
    if reach >= orbit.amplitude:
        raise DomainValidityError(
            f"|x| = {reach:g} is not inside the turning points |x| < {orbit.amplitude:g}"
        )


def _position_spread(minv: MInverseParams, system: OscillatorSystemSpec) -> float:
    """Position spread ``m omega (b/delta)^(3/2) / hbar`` of the smearing kernel; the
    conditional kernel caches it, so its margin is bitwise :func:`validity_window`'s."""
    return system.mass * system.renormalized_frequency * (minv.b / minv.delta) ** 1.5 / system.hbar


def _spread_margin(x_max: float, spread: float) -> float:
    """Margin of ``spread << x_max``; infinite for a vanishing spread."""
    return x_max / spread if spread > 0.0 else np.inf


def validity_window(
    minv: MInverseParams,
    orbit: ClassicalOrbit,
    system: OscillatorSystemSpec,
    cl_params: CaldeiraLeggettParams | None = None,
    time: float | None = None,
) -> ValidityReport:
    """Margins of the quadratic-phase expansion behind the decomposition.

    Two inequalities bound the kernel widths against the orbit curvature
    scale: the position spread ``m omega (b/delta)^(3/2) / hbar << x_max``
    and the chord spread ``8 m omega hbar^2 b^(3/2) << x_max``. Both use the
    orbit-wide scale ``x_max``, so they hold or fail for the whole orbit at
    once. When ``cl_params`` and ``time`` are given, the damped-oscillator
    time window ``(omega t_loc)^(4/3) << t/t_c << (x_max/lambda_B)^(4/9)``
    is evaluated as well.

    Parameters
    ----------
    minv : MInverseParams
    orbit : ClassicalOrbit
    system : OscillatorSystemSpec
        Must share ``orbit.system``'s mass, renormalized frequency and hbar
        (else ``ValueError``).
    cl_params : CaldeiraLeggettParams, optional
    time : float, optional
        Evolution time for the damped-oscillator window (NaN, inf or < 0: ``ValueError``).

    Returns
    -------
    ValidityReport
        ``passed`` gates on every margin >= 1. The factor-10 reading is
        reported as ``strict_passed``; the worked damped-oscillator window is
        itself only a factor above its lower bound, so the hard gate stays
        at 1.
    """
    if (cl_params is None) != (time is None):
        raise ValueError("cl_params and time must be supplied together")
    require_orbit_system(system, orbit)
    omega = system.renormalized_frequency
    x_max = orbit.amplitude
    chord_spread = 8.0 * system.mass * omega * system.hbar**2 * minv.b**1.5
    margins = {
        "position_spread": _spread_margin(x_max, _position_spread(minv, system)),
        "chord_spread": _spread_margin(x_max, chord_spread),
    }
    if time is not None:
        require_nonnegative("time", time)
        report = timescales(system, cl_params, orbit)
        reduced = time / report.t_c
        lower = (omega * report.t_loc) ** (4.0 / 3.0)
        upper = (x_max / orbit.de_broglie) ** (4.0 / 9.0)
        margins["cl_lower_time"] = reduced / lower
        margins["cl_upper_time"] = upper / reduced if reduced > 0.0 else np.inf
    return ValidityReport(margins)


class BranchWidths(NamedTuple):
    """Width parameters of the decomposition, one entry per position.

    ``sigma_plus`` and ``sigma_minus`` are the momentum-width parameters of
    the right- and left-moving branches, ``sigma_1`` the suppression width
    (the envelope carries ``exp(-sigma_1^2 p_cl^2)``), ``sigma_2`` the
    momentum-width parameter of the interference envelope and ``beta`` the
    drift of its ridge in units of ``p_cl``.
    """

    sigma_plus: np.ndarray
    sigma_minus: np.ndarray
    sigma_1: np.ndarray
    sigma_2: np.ndarray
    beta: np.ndarray


def _branch_widths(
    minv: MInverseParams, orbit: ClassicalOrbit, x: float | np.ndarray
) -> BranchWidths:
    """The five width parameters at interior ``x``, elementwise for a float or
    an array (:func:`~bohmdec._elementwise.elementwise`);
    :meth:`SemiclassicalDecomposition.widths` documents them."""
    lib, x = elementwise(x)
    p = orbit.classical_momentum_derivative(x)
    # squares as products: a scalar ``**2`` goes through ``pow`` and can miss
    # the array square by an ulp, and a float must give the bits of the array
    # path
    p2 = p * p
    a, b, c, delta = minv.a, minv.b, minv.c, minv.delta
    hbar = orbit.system.hbar
    inner = hbar**2 * a * delta + b * p2
    tilt = a - b * p2
    envelope = hbar**2 * (tilt * tilt) + (1.0 + hbar**2 * delta) ** 2 * p2
    return BranchWidths(
        sigma_plus=lib.sqrt(delta / (a + 2.0 * c * p + b * p2)),
        sigma_minus=lib.sqrt(delta / (a - 2.0 * c * p + b * p2)),
        sigma_1=lib.sqrt(delta / inner),
        sigma_2=lib.sqrt(inner / envelope),
        beta=c * (1.0 + hbar**2 * delta) * p / inner,
    )


def _log_density(lib, rho: float | np.ndarray) -> float | np.ndarray:
    """``log rho`` with ``-inf`` for an absent branch's zero density, which
    ``math.log`` raises on and numpy warns on."""
    if lib is np:
        with np.errstate(divide="ignore"):
            return np.log(rho)
    return math.log(rho) if rho > 0.0 else -math.inf


@dataclass(frozen=True)
class SemiclassicalDecomposition:
    """Branch widths and interference envelope of a smeared band state.

    Built from the inverse smearing matrix ``minv``, the band's ``orbit`` and
    its branch amplitudes ``wkb``, which must be built on ``orbit`` (an equal
    orbit built apart counts; another raises ``ValueError``). One private
    elementwise evaluator, :meth:`_terms`, turns the branch densities at a
    position into the three momentum Gaussians; it takes a float or an array,
    so a per-point caller pays no array overhead. :meth:`widths` and
    :meth:`gaussian_terms` are array shells over it that check their
    positions: both need ``|x| < x_max`` (``DomainValidityError`` on or
    beyond the turning points, ``ValueError`` for NaN or inf). The widths
    read only ``minv`` and ``orbit`` (:func:`_branch_widths`). The phase-space
    evaluators return zero outside the turning points. The interference phase
    is never evaluated: only the envelope (the prefactor with the cosine
    replaced by one) is available, which bounds the oscillating part
    pointwise.
    """

    minv: MInverseParams
    orbit: ClassicalOrbit
    wkb: WkbAmplitudes

    def __post_init__(self) -> None:
        # identity first: the conditional velocity builds one per point
        own = self.wkb.orbit
        if own is not self.orbit and own != self.orbit:
            raise ValueError(
                f"wkb belongs to another orbit: {own!r}, not {self.orbit!r}"
            )

    def _interior(self, x: float | np.ndarray) -> np.ndarray:
        """``x`` as a 1-D array, checked to lie strictly inside the orbit."""
        x = finite_array("x", x)
        _require_interior(x, self.orbit)
        return x

    def _terms(
        self,
        x: float | np.ndarray,
        rho_plus: float | np.ndarray,
        rho_minus: float | np.ndarray,
    ) -> tuple:
        """The three ``(log_weight, centre, precision)`` triples at interior
        ``x`` from the branch densities there; elementwise, so ``x`` and the
        densities may be floats or arrays of one shape, and a float ``x``
        takes the float functions of :func:`~bohmdec._elementwise.elementwise`.
        A zero density gives weight ``-inf``. :meth:`gaussian_terms`
        documents the terms.
        """
        lib, x = elementwise(x)
        s_plus, s_minus, s1, s2, beta = _branch_widths(self.minv, self.orbit, x)
        p_cl = self.orbit.classical_momentum(x)
        hbar = self.orbit.system.hbar
        log_plus, log_minus = _log_density(lib, rho_plus), _log_density(lib, rho_minus)
        envelope_weight = (
            0.5 * lib.log(4.0 * hbar * s1 * s2 * lib.sqrt(self.minv.delta) / lib.pi)
            + 0.5 * (log_plus + log_minus)
            - (s1 * s1) * (p_cl * p_cl)
        )
        return (
            (lib.log(s_plus / lib.sqrt(lib.pi)) + log_plus, p_cl, s_plus * s_plus),
            (lib.log(s_minus / lib.sqrt(lib.pi)) + log_minus, -p_cl, s_minus * s_minus),
            (envelope_weight, -beta * p_cl, s2 * s2),
        )

    def widths(self, x: float | np.ndarray) -> BranchWidths:
        """The five width parameters at ``x``, each of shape ``(len(x),)``.

        ``sigma_2^2 = (hbar^2 a delta + b p'^2) / D`` with the denominator
        written as ``D = hbar^2 (a - b p'^2)^2 + (1 + hbar^2 delta)^2 p'^2``
        (``p' = p_cl'(x)``; the expanded quartic regrouped with
        ``delta = a b - c^2``). Both terms are squares and ``a > 0`` for a
        positive-definite kernel, so ``D > 0`` at every position.
        Positions must lie inside the turning points.
        """
        return _branch_widths(self.minv, self.orbit, self._interior(x))

    def gaussian_terms(
        self, x: float | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three momentum Gaussians of the decomposition at ``x``.

        Returns ``(log_weight, centre, precision)``, each of shape
        ``(3, len(x))``; term ``k`` contributes
        ``exp(log_weight[k] - precision[k] (p - centre[k])^2)`` at momentum
        ``p``. The rows are

        0. the right-moving branch: centre ``+p_cl``, precision
           ``sigma_plus^2``, weight ``sigma_plus rho_plus / sqrt(pi)``;
        1. the left-moving branch: centre ``-p_cl``, precision
           ``sigma_minus^2``, weight ``sigma_minus rho_minus / sqrt(pi)``;
        2. the interference envelope (unit phase): centre ``-beta p_cl``,
           precision ``sigma_2^2``, weight
           ``sqrt(4 hbar sigma_1 sigma_2 sqrt(delta) / pi)
           sqrt(rho_plus rho_minus) exp(-sigma_1^2 p_cl^2)``.

        Here ``rho_plus = |g_plus|^2`` and ``rho_minus = |g_minus|^2`` are the
        branch densities of :meth:`WkbAmplitudes.amplitudes`. An absent
        branch has weight ``-inf``, and the envelope with it.
        Positions must lie inside the turning points.
        """
        x = self._interior(x)
        g_plus, g_minus = self.wkb.amplitudes(x)
        terms = self._terms(x, np.abs(g_plus) ** 2, np.abs(g_minus) ** 2)
        log_weight, centre, precision = (np.stack(rows) for rows in zip(*terms))
        return log_weight, centre, precision

    def _outer_sum(self, rows: slice, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Sum of the selected Gaussian terms on an ``(x, p)`` outer grid."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.zeros((x.size, p.size))
        inside = np.abs(x) < self.orbit.amplitude
        if np.any(inside):
            log_weight, centre, precision = (
                term[rows, :, None] for term in self.gaussian_terms(x[inside])
            )
            out[inside] = np.exp(log_weight - precision * (p - centre) ** 2).sum(axis=0)
        return out

    def classical_part(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Nonnegative two-branch distribution on an ``(x, p)`` outer grid.

        Returns an array of shape ``(len(x), len(p))``; zero outside the
        turning points.
        """
        return self._outer_sum(slice(0, 2), x, p)

    def oscillatory_envelope(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Pointwise bound on the interference part, shape ``(len(x), len(p))``."""
        return self._outer_sum(slice(2, 3), x, p)


def semiclassical_decomposition(
    minv: MInverseParams,
    orbit: ClassicalOrbit,
    wkb: WkbAmplitudes,
    x: float | np.ndarray,
    cl_params: CaldeiraLeggettParams | None = None,
    time: float | None = None,
) -> SemiclassicalDecomposition:
    """Build the two-branch decomposition after checking its validity window.

    Parameters
    ----------
    minv : MInverseParams
        Inverse of the accumulated smearing matrix.
    orbit : ClassicalOrbit
    wkb : WkbAmplitudes
        Branch amplitudes of the (possibly evolved) band state.
    x : float or array_like
        Positions where the decomposition will be used. The margins of
        :func:`validity_window` are orbit-wide, so ``x`` does not enter the
        check.
    cl_params, time : optional
        Forwarded to :func:`validity_window` for the damped-oscillator
        time-window check.

    Returns
    -------
    SemiclassicalDecomposition

    Raises
    ------
    ValueError
        If ``time`` is NaN, inf or negative.
    DomainValidityError
        If the validity window does not pass.
    """
    report = validity_window(minv, orbit, orbit.system, cl_params=cl_params, time=time)
    _require_margins("semiclassical decomposition", report.margins)
    return SemiclassicalDecomposition(minv=minv, orbit=orbit, wkb=wkb)
