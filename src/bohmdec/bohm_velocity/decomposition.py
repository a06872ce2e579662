"""Two-branch decomposition of a smeared band-state distribution.

After the quadratic master equation has smeared a band state, the phase-space
distribution splits into a nonnegative part riding the two classical momentum
branches plus a rapidly oscillating interference part. This module evaluates
the branch widths, the interference envelope, and the validity window of that
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ..errors import DomainValidityError
from ..phase_space.system import ClassicalOrbit, OscillatorSystemSpec
from ..phase_space.wkb import WkbAmplitudes
from ..quadratic_master.coefficients import CaldeiraLeggettParams
from .timescales import timescales

__all__ = [
    "MInverseParams",
    "SemiclassicalDecomposition",
    "ValidityReport",
    "semiclassical_decomposition",
    "validity_window",
]


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
        if not np.all(np.isfinite([self.a, self.c, self.b, self.delta])):
            raise ValueError("MInverseParams fields must be finite")
        if self.b <= 0.0:
            raise ValueError("MInverseParams.b must be positive")
        if self.delta <= 0.0:
            raise ValueError("MInverseParams.delta must be positive")
        product = self.a * self.b - self.c**2
        if abs(product - self.delta) > 1e-10 * abs(self.delta):
            raise ValueError(
                "MInverseParams determinant mismatch: a*b - c^2 = "
                f"{product!r} but delta = {self.delta!r}"
            )

    @classmethod
    def from_m_matrix(cls, m: np.ndarray) -> "MInverseParams":
        """Invert a symmetric positive-definite smearing matrix."""
        m = np.asarray(m, dtype=float)
        if m.shape != (2, 2):
            raise ValueError("smearing matrix must be 2x2")
        if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(m).max()))):
            raise ValueError("smearing matrix must be symmetric")
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        if det <= 0.0 or m[0, 0] <= 0.0:
            raise ValueError(
                "smearing matrix must be positive definite to invert; "
                f"det = {det!r}"
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
    smaller than".
    """

    margins: Mapping[str, float]
    passed: bool
    strict_passed: bool


def validity_window(
    minv: MInverseParams,
    orbit: ClassicalOrbit,
    system: OscillatorSystemSpec,
    x: float | np.ndarray = 0.0,
    cl_params: CaldeiraLeggettParams | None = None,
    time: float | None = None,
) -> ValidityReport:
    """Margins of the quadratic-phase expansion behind the decomposition.

    Two inequalities bound the kernel widths against the orbit curvature
    scale: the position spread ``m omega (b/delta)^(3/2) / hbar << x_max``
    and the chord spread ``8 m omega hbar^2 b^(3/2) << x_max``. When
    ``cl_params`` and ``time`` are given, the damped-oscillator time window
    ``(omega t_loc)^(4/3) << t/t_c << (x_max/lambda_B)^(4/9)`` is evaluated
    as well.

    Parameters
    ----------
    minv : MInverseParams
    orbit : ClassicalOrbit
    system : OscillatorSystemSpec
    x : float or array_like
        Probe position; the margins use the orbit-wide curvature scale, so
        ``x`` only documents where the caller intends to work.
    cl_params : CaldeiraLeggettParams, optional
    time : float, optional
        Evolution time for the damped-oscillator window.

    Returns
    -------
    ValidityReport
        ``passed`` gates on every margin >= 1. The factor-10 reading is
        reported as ``strict_passed``; the worked damped-oscillator window is
        itself only a factor above its lower bound, so the hard gate stays
        at 1.
    """
    m = system.mass
    omega = system.renormalized_frequency
    hbar = system.hbar
    x_max = orbit.amplitude

    position_spread = m * omega * (minv.b / minv.delta) ** 1.5 / hbar
    chord_spread = 8.0 * m * omega * hbar**2 * minv.b**1.5
    margins = {
        "position_spread": x_max / position_spread if position_spread > 0.0 else np.inf,
        "chord_spread": x_max / chord_spread if chord_spread > 0.0 else np.inf,
    }
    if (cl_params is None) != (time is None):
        raise ValueError("cl_params and time must be supplied together")
    if cl_params is not None and time is not None:
        report = timescales(system, cl_params, orbit)
        reduced = time / report.t_c
        lower = (omega * report.t_loc) ** (4.0 / 3.0)
        upper = (x_max / orbit.de_broglie) ** (4.0 / 9.0)
        margins["cl_lower_time"] = reduced / lower
        margins["cl_upper_time"] = upper / reduced if reduced > 0.0 else np.inf
    values = list(margins.values())
    return ValidityReport(
        margins=MappingProxyType(margins),
        passed=all(v >= 1.0 for v in values),
        strict_passed=all(v >= 10.0 for v in values),
    )


@dataclass(frozen=True)
class SemiclassicalDecomposition:
    """Branch widths and interference envelope of a smeared band state.

    All evaluators accept positions inside the classically allowed region;
    the phase-space evaluators return zero outside it. The interference
    phase is never evaluated: only the envelope (the prefactor with the
    cosine replaced by one) is available, which bounds the oscillating part
    pointwise.
    """

    minv: MInverseParams
    orbit: ClassicalOrbit
    wkb: WkbAmplitudes | None = None

    def _require_wkb(self) -> WkbAmplitudes:
        if self.wkb is None:
            raise ValueError(
                "branch amplitudes were not supplied; construct the "
                "decomposition with wkb= to evaluate densities"
            )
        return self.wkb

    def _widths(self, x: float | np.ndarray) -> tuple[np.ndarray, ...]:
        """``(sigma_plus, sigma_minus, sigma_1, sigma_2, beta)`` at ``x``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = self.orbit.classical_momentum_derivative(x)
        a, b, c, delta = self.minv.a, self.minv.b, self.minv.c, self.minv.delta
        hbar = self.orbit.system.hbar
        inner = hbar**2 * a * delta + b * p**2
        # the sigma_2 denominator, factored (see sigma_2)
        envelope = hbar**2 * (a - b * p**2) ** 2 + (1.0 + hbar**2 * delta) ** 2 * p**2
        return (
            np.sqrt(delta / (a + 2.0 * c * p + b * p**2)),
            np.sqrt(delta / (a - 2.0 * c * p + b * p**2)),
            np.sqrt(delta / inner),
            np.sqrt(inner / envelope),
            c * (1.0 + hbar**2 * delta) * p / inner,
        )

    def sigma_plus(self, x: float | np.ndarray) -> np.ndarray:
        """Momentum-width parameter of the right-moving branch."""
        return self._widths(x)[0]

    def sigma_minus(self, x: float | np.ndarray) -> np.ndarray:
        """Momentum-width parameter of the left-moving branch."""
        return self._widths(x)[1]

    def sigma_1(self, x: float | np.ndarray) -> np.ndarray:
        """Suppression width: the envelope carries ``exp(-sigma_1^2 p_cl^2)``."""
        return self._widths(x)[2]

    def sigma_2(self, x: float | np.ndarray) -> np.ndarray:
        """Momentum-width parameter of the interference envelope.

        ``sigma_2^2 = (hbar^2 a delta + b p'^2) / D`` with the denominator
        written as ``D = hbar^2 (a - b p'^2)^2 + (1 + hbar^2 delta)^2 p'^2``
        (``p' = p_cl'(x)``; the expanded quartic regrouped with
        ``delta = a b - c^2``). Both terms are squares and ``a > 0`` for a
        positive-definite kernel, so ``D > 0`` at every position.
        """
        return self._widths(x)[3]

    def beta(self, x: float | np.ndarray) -> np.ndarray:
        """Drift of the interference ridge in units of ``p_cl``."""
        return self._widths(x)[4]

    def rho_plus(self, x: float | np.ndarray) -> np.ndarray:
        """Right-moving branch position density."""
        return self._require_wkb().rho_plus(x)

    def rho_minus(self, x: float | np.ndarray) -> np.ndarray:
        """Left-moving branch position density."""
        return self._require_wkb().rho_minus(x)

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

        An absent branch has weight ``-inf``, and the envelope with it.
        Positions must lie inside the turning points.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        g_plus, g_minus = self._require_wkb().amplitudes(x)
        with np.errstate(divide="ignore"):
            log_rho = np.log(np.abs(np.stack([g_plus, g_minus])) ** 2)
        hbar = self.orbit.system.hbar
        p_cl = self.orbit.classical_momentum(x)
        s_plus, s_minus, s1, s2, beta = self._widths(x)
        log_weight = np.stack(
            [
                np.log(s_plus / np.sqrt(np.pi)) + log_rho[0],
                np.log(s_minus / np.sqrt(np.pi)) + log_rho[1],
                0.5 * np.log(4.0 * hbar * s1 * s2 * np.sqrt(self.minv.delta) / np.pi)
                + 0.5 * (log_rho[0] + log_rho[1])
                - s1**2 * p_cl**2,
            ]
        )
        centre = np.stack([p_cl, -p_cl, -beta * p_cl])
        precision = np.stack([s_plus**2, s_minus**2, s2**2])
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
    """Build the two-branch decomposition after checking validity at ``x``.

    Parameters
    ----------
    minv : MInverseParams
        Inverse of the accumulated smearing matrix.
    orbit : ClassicalOrbit
    wkb : WkbAmplitudes
        Branch amplitudes of the (possibly evolved) band state.
    x : float or array_like
        Positions where the decomposition will be used.
    cl_params, time : optional
        Forwarded to :func:`validity_window` for the damped-oscillator
        time-window check.

    Returns
    -------
    SemiclassicalDecomposition

    Raises
    ------
    DomainValidityError
        If the validity window does not pass at ``x``.
    """
    report = validity_window(
        minv, orbit, orbit.system, x, cl_params=cl_params, time=time
    )
    if not report.passed:
        failing = {k: round(v, 4) for k, v in report.margins.items() if v < 1.0}
        raise DomainValidityError(
            "semiclassical decomposition requested outside its validity "
            f"window; margins below 1: {failing}"
        )
    return SemiclassicalDecomposition(minv=minv, orbit=orbit, wkb=wkb)
