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

from ..errors import DomainValidityError, NumericalFailureError
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

    def _slope(self, x: np.ndarray) -> np.ndarray:
        return self.orbit.classical_momentum_derivative(x)

    def sigma_plus(self, x: float | np.ndarray) -> np.ndarray:
        """Momentum-width parameter of the right-moving branch."""
        return self._branch_sigma(x, +1.0)

    def sigma_minus(self, x: float | np.ndarray) -> np.ndarray:
        """Momentum-width parameter of the left-moving branch."""
        return self._branch_sigma(x, -1.0)

    def _branch_sigma(self, x: float | np.ndarray, sign: float) -> np.ndarray:
        p = self._slope(np.atleast_1d(np.asarray(x, dtype=float)))
        minv = self.minv
        denominator = minv.a + sign * 2.0 * minv.c * p + minv.b * p**2
        return np.sqrt(minv.delta / denominator)

    def sigma_1(self, x: float | np.ndarray) -> np.ndarray:
        """Suppression width: the envelope carries ``exp(-sigma_1^2 p_cl^2)``."""
        p = self._slope(np.atleast_1d(np.asarray(x, dtype=float)))
        minv = self.minv
        hbar = self.orbit.system.hbar
        return np.sqrt(minv.delta / (hbar**2 * minv.a * minv.delta + minv.b * p**2))

    def sigma_2(self, x: float | np.ndarray) -> np.ndarray:
        """Momentum-width parameter of the interference envelope."""
        p = self._slope(np.atleast_1d(np.asarray(x, dtype=float)))
        minv = self.minv
        hbar = self.orbit.system.hbar
        numerator = hbar**2 * minv.a * minv.delta + minv.b * p**2
        denominator = (
            hbar**2 * minv.a**2
            + (1.0 - 2.0 * hbar**2 * minv.c**2 + hbar**4 * minv.delta**2) * p**2
            + hbar**2 * minv.b**2 * p**4
        )
        if np.any(denominator[np.isfinite(denominator)] <= 0.0):
            raise NumericalFailureError(
                "interference width parameter lost positivity"
            )
        return np.sqrt(numerator / denominator)

    def beta(self, x: float | np.ndarray) -> np.ndarray:
        """Drift of the interference ridge in units of ``p_cl``."""
        p = self._slope(np.atleast_1d(np.asarray(x, dtype=float)))
        minv = self.minv
        hbar = self.orbit.system.hbar
        return (
            minv.c
            * (1.0 + hbar**2 * minv.delta)
            * p
            / (hbar**2 * minv.a * minv.delta + minv.b * p**2)
        )

    def rho_plus(self, x: float | np.ndarray) -> np.ndarray:
        """Right-moving branch position density."""
        return self._require_wkb().rho_plus(np.atleast_1d(np.asarray(x, dtype=float)))

    def rho_minus(self, x: float | np.ndarray) -> np.ndarray:
        """Left-moving branch position density."""
        return self._require_wkb().rho_minus(np.atleast_1d(np.asarray(x, dtype=float)))

    def classical_part(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Nonnegative two-branch distribution on an ``(x, p)`` outer grid.

        Returns an array of shape ``(len(x), len(p))``; zero outside the
        turning points.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.zeros((x.size, p.size))
        inside = np.abs(x) < self.orbit.amplitude
        if not np.any(inside):
            return out
        xs = x[inside]
        p_cl = self.orbit.classical_momentum(xs)[:, None]
        s_plus = self.sigma_plus(xs)[:, None]
        s_minus = self.sigma_minus(xs)[:, None]
        rho_p = self.rho_plus(xs)[:, None]
        rho_m = self.rho_minus(xs)[:, None]
        grid_p = p[None, :]
        out[inside] = (
            s_minus / np.sqrt(np.pi) * np.exp(-(s_minus**2) * (grid_p + p_cl) ** 2) * rho_m
            + s_plus / np.sqrt(np.pi) * np.exp(-(s_plus**2) * (grid_p - p_cl) ** 2) * rho_p
        )
        return out

    def oscillatory_envelope(self, x: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Pointwise bound on the interference part, shape ``(len(x), len(p))``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        p = np.atleast_1d(np.asarray(p, dtype=float))
        out = np.zeros((x.size, p.size))
        inside = np.abs(x) < self.orbit.amplitude
        if not np.any(inside):
            return out
        xs = x[inside]
        hbar = self.orbit.system.hbar
        p_cl = self.orbit.classical_momentum(xs)[:, None]
        s1 = self.sigma_1(xs)[:, None]
        s2 = self.sigma_2(xs)[:, None]
        drift = self.beta(xs)[:, None]
        cross = np.sqrt(self.rho_plus(xs) * self.rho_minus(xs))[:, None]
        prefactor = np.sqrt(4.0 * hbar * s1 * s2 * np.sqrt(self.minv.delta) / np.pi)
        grid_p = p[None, :]
        out[inside] = (
            prefactor
            * np.exp(-(s2**2) * (grid_p + drift * p_cl) ** 2 - s1**2 * p_cl**2)
            * cross
        )
        return out


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
