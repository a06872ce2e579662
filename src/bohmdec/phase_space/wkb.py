"""Semiclassical band wavefunctions: exact synthesis and branch amplitudes.

A band state with stored coefficients ``c_r`` corresponds to the exact
wavefunction ``psi(x) = sum_r c_r (-i)^r phi_{nbar+r}(x)`` where ``phi_n``
are the standard real eigenfunctions. Away from the turning points each
``phi_n`` behaves like ``(-1)^n sqrt(2 m omega / (pi p_n)) cos(A_n - pi/4)``
with ``A_n`` the accumulated phase from the left turning point; the parity
sign is fixed by ``phi_n(x) ~ x^n exp(-x^2/...)`` for large negative ``x``.
Expanding ``A_{nbar+r}`` to first order in ``r`` and collecting the two
exponentials of the cosine gives

    psi(x) = (-i)^nbar e^{+iS/hbar} g_plus(x) + (+i)^nbar e^{-iS/hbar} g_minus(x)

with ``S(x)`` the mean-level action from the orbit centre and, writing
``theta = arcsin(x / x_max)``,

    g_plus(x)  = sqrt(m omega / (2 pi p_cl)) * sum_r c_r (-1)^r exp(+i r theta),
    g_minus(x) = sqrt(m omega / (2 pi p_cl)) * sum_r c_r exp(-i r theta).

The ``e^{+iS/hbar}`` factor carries local momentum ``+p_cl`` and the
``e^{-iS/hbar}`` factor ``-p_cl``, so ``|g_plus|^2`` and ``|g_minus|^2`` are
the position densities of the right- and left-moving branches; they match the
positive- and negative-momentum lobes of the exact Wigner function and their
sum integrates to one over the orbit. The parity sign cannot be removed from
both branches at once: with the ``(-i)^r`` level-phase convention it lands on
the right-moving branch, so a band with equal real coefficients concentrates
at the orbit centre moving in the negative-momentum direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import DomainValidityError
from .eigenstates import eigenfunction_table
from .system import ClassicalOrbit, EnergyBandState, OscillatorSystemSpec

__all__ = [
    "WkbAmplitudes",
    "band_wavefunction",
    "wkb_amplitudes",
    "wkb_wavefunction",
]

TURNING_WINDOW_FRACTION = 0.05


def band_wavefunction(
    state: EnergyBandState, system: OscillatorSystemSpec
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact wavefunction sampler for a band state.

    Returns a vectorized callable evaluating
    ``psi(x) = sum_r c_r (-i)^r phi_{mean_level + r}(x)``.
    """
    levels = state.levels
    phases = (-1j) ** state.offsets
    weights = state.coefficients * phases

    def sampler(x: np.ndarray) -> np.ndarray:
        table = eigenfunction_table(levels, x, system)
        return weights @ table.astype(complex)

    return sampler


@dataclass(frozen=True)
class WkbAmplitudes:
    """Branch amplitudes of a semiclassical band state on its mean-level orbit.

    ``g_plus`` and ``g_minus`` are the slowly varying amplitudes multiplying
    ``exp(+iS/hbar)`` and ``exp(-iS/hbar)``, with amplitude scale
    ``sqrt(m omega / (2 pi p_cl(x)))``; for a pure level both moduli reduce
    to that scale, and both vanish identically outside the classically
    allowed region. ``rho_plus``/``rho_minus`` are their squared moduli, the
    branch position densities; their sum integrates to one over the orbit.
    :meth:`amplitudes` evaluates both branches from one sum over the band,
    and the single-branch methods read it.
    """

    state: EnergyBandState
    orbit: ClassicalOrbit
    system: OscillatorSystemSpec

    def amplitudes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(g_plus, g_minus)`` at ``x``."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = np.abs(x) < self.orbit.amplitude
        r = self.state.offsets
        c = self.state.coefficients
        # g_minus is the conjugate of a sum over conj(c_r) exp(+i r theta), so
        # both branches come from one product with the same phases
        phases = np.exp(1j * r[:, None] * self.orbit.angle(x)[None, :])
        plus, conj_minus = np.stack([c * (-1.0) ** r, np.conjugate(c)]) @ phases
        p = self.orbit.classical_momentum(x)
        m = self.system.mass
        w = self.system.renormalized_frequency
        with np.errstate(divide="ignore"):
            scale = np.sqrt(m * w / (2.0 * np.pi * np.where(inside, p, np.inf)))
        return scale * plus, scale * np.conjugate(conj_minus)

    def g_plus(self, x: np.ndarray) -> np.ndarray:
        return self.amplitudes(x)[0]

    def g_minus(self, x: np.ndarray) -> np.ndarray:
        return self.amplitudes(x)[1]

    def rho_plus(self, x: np.ndarray) -> np.ndarray:
        return np.abs(self.g_plus(x)) ** 2

    def rho_minus(self, x: np.ndarray) -> np.ndarray:
        return np.abs(self.g_minus(x)) ** 2


def wkb_amplitudes(
    state: EnergyBandState,
    orbit: ClassicalOrbit,
    system: OscillatorSystemSpec,
) -> WkbAmplitudes:
    """Branch amplitudes of ``state`` on its mean-level orbit.

    Parameters
    ----------
    state : EnergyBandState
    orbit : ClassicalOrbit
        Orbit of the state's mean level (see :func:`classical_orbit`).
    system : OscillatorSystemSpec

    Returns
    -------
    WkbAmplitudes
    """
    return WkbAmplitudes(state=state, orbit=orbit, system=system)


def wkb_wavefunction(
    state: EnergyBandState,
    orbit: ClassicalOrbit,
    x: np.ndarray,
    system: OscillatorSystemSpec,
) -> np.ndarray:
    """Semiclassical wavefunction of a band state.

    Evaluates ``(-1)^nbar i (e^{-is} g_- - e^{+is} g_+)`` with
    ``s = orbit.action(x) / hbar`` (the turning-point-referenced action,
    which absorbs the half-orbit and quarter-wave phase offsets of the
    centre-referenced form quoted in the module docstring). The result
    matches the exact :func:`band_wavefunction` pointwise (amplitude and
    phase) away from the turning points.

    Parameters
    ----------
    state : EnergyBandState
        Must satisfy :attr:`EnergyBandState.semiclassical_ok`.
    orbit : ClassicalOrbit
    x : array_like
        Evaluation points. Points inside the turning windows (within 5% of
        the turning points) are out of validity.
    system : OscillatorSystemSpec

    Returns
    -------
    numpy.ndarray
        Complex wavefunction values.

    Raises
    ------
    DomainValidityError
        If the state is not semiclassical or any point falls in a turning
        window.
    """
    if not state.semiclassical_ok:
        raise DomainValidityError(
            "wkb_wavefunction requires a semiclassical band state "
            f"(mean_level={state.mean_level}, band_width={state.band_width})"
        )
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cutoff = (1.0 - TURNING_WINDOW_FRACTION) * orbit.amplitude
    if np.any(np.abs(x) >= cutoff):
        worst = float(np.max(np.abs(x)))
        raise DomainValidityError(
            f"requested point |x| = {worst:g} lies inside the turning window "
            f"(|x| >= {cutoff:g}); the branch expansion is invalid there"
        )
    g_plus, g_minus = wkb_amplitudes(state, orbit, system).amplitudes(x)
    s = orbit.action(x) / system.hbar
    sign = -1.0 if state.mean_level % 2 else 1.0
    return sign * 1j * (np.exp(-1j * s) * g_minus - np.exp(1j * s) * g_plus)
