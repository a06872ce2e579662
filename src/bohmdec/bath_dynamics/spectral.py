"""Explicit oscillator environments and their spectral densities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._guards import (
    finite_array, freeze_fields, require_integer, require_nonnegative, require_positive
)
from ..phase_space import OscillatorSystemSpec
from ..quadratic_master import CaldeiraLeggettParams
from ._trig import cin, one_minus_cos, si_cin, sin_minus_u_cos, t_minus_sin

__all__ = [
    "BathSpec",
    "SpectralDensity",
    "counterterm_bare_frequency",
    "discretize_spectral_density",
]

_SLICE_SERIES_CUT = 0.5
# Taylor coefficients of R, Q, P, S in X^4, X^6, ..., X^18: the integrands'
# series integrated term by term, as exact rationals.
_SLICE_SERIES = np.array(
    [
        [1 / 48, -1 / 540, 41 / 483840, -23 / 9072000, 157 / 2874009600,
         -31 / 34673184000, 1927 / 167382319104000, -3449 / 28810681675776000],
        [1 / 144, -1 / 2160, 41 / 2419200, -23 / 54432000, 157 / 20118067200,
         -31 / 277385472000, 1927 / 1506440871936000, -3449 / 288106816757760000],
        [1 / 16, -1 / 144, 1 / 2560, -17 / 1209600, 31 / 87091200,
         -1 / 149022720, 5461 / 55794106368000, -257 / 225966130790400],
        [1 / 36, -1 / 270, 1 / 4200, -2 / 212625, 1 / 3929310,
         -1 / 198648450, 1 / 13135122000, -4 / 4396161144375],
    ]
)


@dataclass(frozen=True)
class BathSpec:
    """A finite collection of harmonic modes bilinearly coupled in position.

    Attributes
    ----------
    masses, frequencies, couplings : numpy.ndarray
        Per-mode mass, angular frequency and coupling constant; equal-length
        one-dimensional arrays. Masses and frequencies must be positive,
        couplings may carry either sign.
    thermal_energy : float
        ``k_B T`` of the thermal preparation; strictly positive.
    hbar : float

    Every field must be finite; NaN or inf raises ``ValueError``.
    """

    masses: np.ndarray
    frequencies: np.ndarray
    couplings: np.ndarray
    thermal_energy: float
    hbar: float = 1.0

    def __post_init__(self) -> None:
        freeze_fields(self, ("masses", "frequencies", "couplings"))
        masses, frequencies, couplings = self.masses, self.frequencies, self.couplings
        if not masses.shape == frequencies.shape == couplings.shape or masses.ndim != 1:
            raise ValueError("masses, frequencies and couplings must be 1-D and equal length")
        for name in ("masses", "frequencies", "couplings"):
            finite_array(f"BathSpec.{name}", getattr(self, name))
        for name in ("thermal_energy", "hbar"):
            require_positive(f"BathSpec.{name}", getattr(self, name))
        if np.any(masses <= 0.0) or np.any(frequencies <= 0.0):
            raise ValueError("mode masses and frequencies must be positive")

    @property
    def n_modes(self) -> int:
        return self.masses.size

    @property
    def thermal_ratios(self) -> np.ndarray:
        """``hbar omega_r / (k_B T)`` per mode, recomputed from the fields."""
        return self.hbar * self.frequencies / self.thermal_energy

    @property
    def coherent_widths(self) -> np.ndarray:
        """Ground-state position width ``sqrt(hbar / (m_r omega_r))`` per mode."""
        return np.sqrt(self.hbar / (self.masses * self.frequencies))

    @property
    def spectral_weights(self) -> np.ndarray:
        """Quadrature masses ``kappa_r^2 / (2 m_r omega_r)`` of the line spectrum."""
        return self.couplings**2 / (2.0 * self.masses * self.frequencies)


def _require_same_modes(bath: BathSpec, reference: BathSpec, what: str) -> None:
    """``ValueError`` unless masses, frequencies and couplings equal ``reference``'s."""
    if not all(
        np.array_equal(getattr(bath, name), getattr(reference, name))
        for name in ("masses", "frequencies", "couplings")
    ):
        raise ValueError(f"bath differs from the one {what}")


@dataclass(frozen=True)
class SpectralDensity:
    """Coupling-weighted density of environment modes.

    Two kinds are supported: ``discrete`` wraps a :class:`BathSpec` as a line
    spectrum whose lines carry the quadrature masses
    ``kappa_r^2 / (2 m_r omega_r)``, and ``ohmic`` is the sharply cut off
    linear form ``2 m gamma omega / pi`` on ``[0, cutoff]``, where ``m`` is
    the mass of the central oscillator.

    The spectral integrals the bath modules need are methods here: a line
    spectrum sums its lines exactly, and the ohmic form uses closed forms in
    the sine and cosine integrals (Abramowitz & Stegun 5.2). The memory
    kernel is tabulated for the ohmic form only; a line spectrum's response
    comes from its normal modes instead. The ohmic parameters must be
    finite; NaN or inf raises ``ValueError``.
    """

    kind: str
    bath: BathSpec | None = None
    damping_rate: float = 0.0
    cutoff: float = 0.0
    mass: float = 0.0

    def __post_init__(self) -> None:
        if self.kind == "discrete":
            if self.bath is None:
                raise ValueError("a discrete density requires a bath")
        elif self.kind == "ohmic":
            require_nonnegative("SpectralDensity.damping_rate", self.damping_rate)
            for name in ("cutoff", "mass"):
                require_positive(f"SpectralDensity.{name}", getattr(self, name))
        else:
            raise ValueError(f"unknown spectral density kind {self.kind!r}")

    @classmethod
    def from_bath(cls, bath: BathSpec) -> SpectralDensity:
        return cls(kind="discrete", bath=bath)

    @classmethod
    def from_ohmic(
        cls, system: OscillatorSystemSpec, damping_rate: float, cutoff: float
    ) -> SpectralDensity:
        return cls(
            kind="ohmic", damping_rate=damping_rate, cutoff=cutoff, mass=system.mass
        )

    def kernel_tables(
        self, bare_frequency: float, mass: float, step: float, count: int
    ) -> list[np.ndarray]:
        """Ohmic memory kernel ``chi`` and its first two derivatives at ``k step``, ``k < count``.

        ``chi(tau) = 2 / (mass b) integral I(omega) K(omega, b, tau) domega``
        with ``b`` the bare frequency and ``K`` the kernel ``K0`` of
        :func:`~bohmdec.bath_dynamics._trig.pair_kernel`; the derivatives
        integrate its ``K1`` and ``K2``. With ``s, c = sin(b tau), cos(b tau)``,
        ``dCin = Cin((L+b) tau) - Cin(|L-b| tau)`` and
        ``sumSi = Si((L+b) tau) + Si((L-b) tau)`` at cutoff ``L``::

            chi      = k/b [L s - b/2 (s dCin + c sumSi)]
            chi_dot  = k [L c - b/2 (c dCin - s sumSi) - sin(L tau)/tau]
            chi_ddot = -b^2 chi + k (sin(L tau) - L tau cos(L tau)) / tau^2

        where ``k = 4 gamma / pi`` times the density's mass over ``mass``. A
        line spectrum has no tables here: its response comes from the normal
        modes (:func:`~bohmdec.bath_dynamics.volterra.solve_g_kernel`).

        Parameters
        ----------
        bare_frequency : float
        mass : float
            Central mass in the kernel prefactor.
        step : float
            Positive spacing of the uniform time grid.
        count : int
            Number of grid nodes, starting at ``tau = 0``; a whole number.

        Raises
        ------
        ValueError
            For a line spectrum, a ``bare_frequency``, ``mass`` or ``step`` not
            finite and positive, or a ``count`` not a whole number of at least 1.
        """
        if self.kind != "ohmic":
            raise ValueError("only the ohmic density has kernel tables")
        for name, value in (("bare_frequency", bare_frequency), ("mass", mass), ("step", step)):
            require_positive(name, value)
        if require_integer("count", count) < 1:
            raise ValueError("count must be at least 1")
        b = bare_frequency
        times = np.arange(count) * step
        s, c = np.sin(b * times), np.cos(b * times)
        k = 4.0 * self.damping_rate / np.pi * (self.mass / mass)
        cut = self.cutoff
        si, cin_ = si_cin(np.multiply.outer([cut + b, cut - b], times))
        d_cin, si_sum = cin_[0] - cin_[1], si[0] + si[1]
        u = cut * times
        chi = k / b * (cut * s - 0.5 * b * (s * d_cin + c * si_sum))
        chi_dot = k * (cut * c - 0.5 * b * (c * d_cin - s * si_sum) - cut * np.sinc(u / np.pi))
        tail = np.divide(sin_minus_u_cos(u), times * times, out=np.zeros_like(u), where=times > 0.0)
        chi_ddot = -b * b * chi + k * tail
        return [chi, chi_dot, chi_ddot]

    def slice_integrals(self, t: float) -> tuple[float, float, float, float]:
        """Spectral integrals behind the conditional kernel at time ``t``.

        Returns ``integral I(omega) f(omega) domega`` for the four integrands
        ``((omega t - sin omega t) / omega^2)^2``,
        ``(omega t - sin omega t)(1 - cos omega t) / omega^3``,
        ``((1 - cos omega t) / omega)^2`` and
        ``((sin omega t - omega t cos omega t) / omega^2)^2``. For the ohmic
        form they are ``2 m gamma / pi`` times ``t^2 Q``, ``t R``, ``P`` and
        ``t^2 S`` of ``X = cutoff t``::

            R = 2 Cin(X) - Cin(2X) + (sin X - sin(2X) / 2) / X
            Q = R - (1 - sin(X) / X)^2 / 2
            P = 2 Cin(X) - Cin(2X) / 2
            S = Cin(2X) / 2 - 1/2 + sin(2X) / (2X) - sin(X)^2 / (2 X^2)

        All four cancel down to ``O(X^4)``, so below ``X = 0.5`` their Taylor
        series are summed instead. ``t`` must be finite and non-negative (``ValueError``).
        """
        require_nonnegative("t", t)
        if self.kind == "discrete":
            freqs, weights = self.bath.frequencies, self.bath.spectral_weights
            u = freqs * t
            integrands = (
                (t_minus_sin(u) / (freqs * freqs)) ** 2,
                t_minus_sin(u) * one_minus_cos(u) / freqs**3,
                (one_minus_cos(u) / freqs) ** 2,
                (sin_minus_u_cos(u) / (freqs * freqs)) ** 2,
            )
            return tuple(float(np.dot(weights, f)) for f in integrands)
        r, q, p, s = _ohmic_slice_forms(float(self.cutoff * t))
        scale = 2.0 * self.mass * self.damping_rate / np.pi
        return scale * t * t * q, scale * t * r, scale * p, scale * t * t * s


def _ohmic_slice_forms(x: float) -> tuple[float, float, float, float]:
    """``R, Q, P, S`` of :meth:`SpectralDensity.slice_integrals` at ``X = x``."""
    if x < _SLICE_SERIES_CUT:
        x2 = x * x
        return tuple(
            float(x2 * x2 * np.polynomial.polynomial.polyval(x2, row))
            for row in _SLICE_SERIES
        )
    cin_x, cin_2x = cin(x), cin(2.0 * x)
    sinc = np.sin(x) / x
    r = 2.0 * cin_x - cin_2x + (np.sin(x) - 0.5 * np.sin(2.0 * x)) / x
    q = r - 0.5 * (1.0 - sinc) ** 2
    p = 2.0 * cin_x - 0.5 * cin_2x
    s = 0.5 * cin_2x - 0.5 + np.sin(2.0 * x) / (2.0 * x) - 0.5 * sinc * sinc
    return float(r), float(q), float(p), float(s)


def discretize_spectral_density(
    cl_params: CaldeiraLeggettParams,
    system: OscillatorSystemSpec,
    n_modes: int,
) -> BathSpec:
    """Build a finite bath whose line spectrum converges to the ohmic density.

    Unit mode masses are used throughout; only the combination
    ``kappa_r^2 / m_r`` is physical, so the couplings absorb the choice. The
    frequencies sit at cell centers ``(r - 1/2) cutoff / n_modes`` and the
    couplings reproduce the cell integrals
    ``kappa_r^2 = 2 m_r omega_r I(omega_r) domega`` of the ohmic form, making
    smooth spectral integrals second-order accurate in the cell width.

    Parameters
    ----------
    cl_params : CaldeiraLeggettParams
        Supplies the damping rate, the cutoff and the bath temperature.
    system : OscillatorSystemSpec
        Supplies the central mass entering the ohmic normalization and hbar.
    n_modes : int
        A whole number, at least 1; ``3.0`` counts as ``3``.

    Returns
    -------
    BathSpec

    Raises
    ------
    ValueError
        If ``n_modes`` is not a whole number of at least 1 (NaN and inf
        included), or the temperature is not positive.
    """
    n_modes = require_integer("n_modes", n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if cl_params.thermal_energy <= 0.0:
        raise ValueError("a sampled bath needs a positive temperature")
    spacing = cl_params.cutoff / n_modes
    frequencies = (np.arange(n_modes) + 0.5) * spacing
    masses = np.ones(n_modes)
    density = 2.0 * system.mass * cl_params.damping_rate * frequencies / np.pi
    couplings = np.sqrt(2.0 * masses * frequencies * density * spacing)
    return BathSpec(
        masses=masses,
        frequencies=frequencies,
        couplings=couplings,
        thermal_energy=cl_params.thermal_energy,
        hbar=system.hbar,
    )


def counterterm_bare_frequency(bath: BathSpec, system: OscillatorSystemSpec) -> float:
    """Bare frequency that renormalizes to ``system.renormalized_frequency``.

    Coupling the modes shifts the central oscillator's effective squared
    frequency down by ``sum_r kappa_r^2 / (m m_r omega_r^2)``; starting from
    the returned value restores the requested physical frequency once the
    bath is attached.
    """
    shift = np.sum(
        bath.couplings**2 / (system.mass * bath.masses * bath.frequencies**2)
    )
    return float(np.sqrt(system.renormalized_frequency**2 + shift))
