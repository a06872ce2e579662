"""Oscillator system description, energy band states, and classical orbits."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OscillatorSystemSpec",
    "EnergyBandState",
    "ClassicalOrbit",
    "build_energy_band_state",
    "classical_orbit",
]


@dataclass(frozen=True)
class OscillatorSystemSpec:
    """Harmonic oscillator parameters in explicit units.

    Parameters
    ----------
    mass : float
        Oscillator mass, must be positive.
    bare_frequency : float
        Frequency entering the isolated Hamiltonian before any environmental
        shift, must be positive.
    renormalized_frequency : float
        Observable oscillation frequency after the environment-induced shift
        has been absorbed; coincides with ``bare_frequency`` for a closed
        system. Must be positive.
    hbar : float
        Reduced Planck constant in the chosen units. Natural units
        (``hbar = 1``) are the default.
    """

    mass: float = 1.0
    bare_frequency: float = 1.0
    renormalized_frequency: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mass", "bare_frequency", "renormalized_frequency", "hbar"):
            if not np.isfinite(getattr(self, name)) or getattr(self, name) <= 0.0:
                raise ValueError(f"OscillatorSystemSpec.{name} must be positive")


@dataclass(frozen=True)
class EnergyBandState:
    """Superposition of adjacent energy eigenstates around a mean level.

    The stored ``coefficients`` are indexed by the level offset
    ``r = -band_width/2 .. +band_width/2``. They obey
    ``sum |c_r|^2 == 1`` to within 1e-12 and the lowest populated level
    ``mean_level - band_width/2`` may not be negative.

    Attributes
    ----------
    mean_level : int
        Central level of the band.
    band_width : int
        Total spread in level index; even and non-negative, so the band is
        symmetric around ``mean_level``.
    coefficients : numpy.ndarray
        Complex amplitudes, one per populated level, offset order.
    """

    mean_level: int
    band_width: int
    coefficients: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.band_width < 0 or self.band_width % 2 != 0:
            raise ValueError(
                "EnergyBandState.band_width must be even and non-negative"
            )
        if self.mean_level - self.band_width // 2 < 0:
            raise ValueError(
                "EnergyBandState requires mean_level - band_width/2 >= 0 "
                "(lowest populated level would be negative)"
            )
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.shape != (self.band_width + 1,):
            raise ValueError(
                f"EnergyBandState needs {self.band_width + 1} coefficients, "
                f"got shape {coeffs.shape}"
            )
        norm = float(np.sum(np.abs(coeffs) ** 2))
        if not abs(norm - 1.0) <= 1e-12:  # also rejects NaN and inf
            raise ValueError(
                "EnergyBandState coefficients must be normalized: "
                f"sum |c_r|^2 = {norm!r} differs from 1 by more than 1e-12"
            )
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def offsets(self) -> np.ndarray:
        """Level offsets ``r`` corresponding to ``coefficients``."""
        half = self.band_width // 2
        return np.arange(-half, half + 1)

    @property
    def levels(self) -> np.ndarray:
        """Absolute level indices populated by the band."""
        return self.mean_level + self.offsets

    @property
    def semiclassical_ok(self) -> bool:
        """Whether the band is narrow and high enough for WKB treatment.

        Requires ``mean_level >= 10 * band_width`` and ``mean_level >= 10``.
        """
        return self.mean_level >= 10 * self.band_width and self.mean_level >= 10


def build_energy_band_state(
    mean_level: int,
    band_width: int,
    coefficients: np.ndarray | list | None = None,
) -> EnergyBandState:
    """Construct a band state, defaulting to equal coefficients.

    Parameters
    ----------
    mean_level : int
        Central level of the band.
    band_width : int
        Even, non-negative level spread.
    coefficients : array_like of complex, optional
        Amplitudes in offset order. ``None`` gives the equal-weight band
        ``c_r = 1/sqrt(band_width + 1)``.

    Returns
    -------
    EnergyBandState

    Raises
    ------
    ValueError
        If ``mean_level`` or ``band_width`` is not an integer, or the band
        is invalid (see :class:`EnergyBandState`).
    """
    for name, value in (("mean_level", mean_level), ("band_width", band_width)):
        if not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
    mean_level, band_width = int(mean_level), int(band_width)
    if coefficients is None:
        n = band_width + 1
        coefficients = np.full(n, 1.0 / np.sqrt(n), dtype=complex)
    return EnergyBandState(
        mean_level=mean_level,
        band_width=band_width,
        coefficients=np.asarray(coefficients, dtype=complex),
    )


@dataclass(frozen=True)
class ClassicalOrbit:
    """Classical orbit data for the mean level of a band state.

    Attributes
    ----------
    energy : float
        Orbit energy ``(mean_level + 1/2) * hbar * omega``.
    amplitude : float
        Turning point ``x_max = sqrt(2 E / (m omega^2))``.
    de_broglie : float
        Local wavelength scale ``hbar / (m omega x_max)``.
    system : OscillatorSystemSpec
        The oscillator the orbit lives on.
    """

    energy: float
    amplitude: float
    de_broglie: float
    system: OscillatorSystemSpec

    def classical_momentum(self, x: np.ndarray) -> np.ndarray:
        """Positive-branch momentum ``p_cl(x) = m omega sqrt(x_max^2 - x^2)``.

        Zero beyond the turning points.
        """
        x = np.asarray(x, dtype=float)
        m = self.system.mass
        w = self.system.renormalized_frequency
        inside = np.clip(self.amplitude**2 - x**2, 0.0, None)
        return m * w * np.sqrt(inside)

    def classical_momentum_derivative(self, x: np.ndarray) -> np.ndarray:
        """First derivative ``p_cl'(x)``; diverges at the turning points."""
        x = np.asarray(x, dtype=float)
        m = self.system.mass
        w = self.system.renormalized_frequency
        inside = self.amplitude**2 - x**2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = -m * w * x / np.sqrt(inside)
        return np.where(inside > 0.0, out, np.nan)

    def action(self, x: np.ndarray) -> np.ndarray:
        """Accumulated action from the left turning point plus its quarter-wave
        reference value.

        ``S(x) = integral of p_cl from -x_max to x, offset so that
        S(-x_max) = pi hbar / 4``; its derivative is ``p_cl(x)``.
        """
        x = np.asarray(x, dtype=float)
        m = self.system.mass
        w = self.system.renormalized_frequency
        a = self.amplitude
        xc = np.clip(x, -a, a)
        theta = np.arcsin(xc / a)
        core = 0.5 * xc * np.sqrt(np.clip(a**2 - xc**2, 0.0, None)) + 0.5 * a**2 * theta
        return m * w * (core + 0.25 * np.pi * a**2) + 0.25 * np.pi * self.system.hbar

    def angle(self, x: np.ndarray) -> np.ndarray:
        """Orbit angle ``arcsin(x / x_max)``, clipped to the turning points."""
        x = np.asarray(x, dtype=float)
        return np.arcsin(np.clip(x / self.amplitude, -1.0, 1.0))


def classical_orbit(
    state: EnergyBandState, system: OscillatorSystemSpec
) -> ClassicalOrbit:
    """Orbit of the band's mean level.

    Parameters
    ----------
    state : EnergyBandState
    system : OscillatorSystemSpec

    Returns
    -------
    ClassicalOrbit
        With energy ``(mean_level + 1/2) hbar omega``, amplitude
        ``sqrt(2 E / m omega^2)`` and de Broglie scale
        ``hbar / (m omega x_max)``.
    """
    m = system.mass
    w = system.renormalized_frequency
    energy = (state.mean_level + 0.5) * system.hbar * w
    amplitude = float(np.sqrt(2.0 * energy / (m * w**2)))
    de_broglie = system.hbar / (m * w * amplitude)
    return ClassicalOrbit(
        energy=energy, amplitude=amplitude, de_broglie=de_broglie, system=system
    )
