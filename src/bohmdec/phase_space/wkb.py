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

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .._elementwise import elementwise
from .._guards import require_orbit_system
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
    ``psi(x) = sum_r c_r (-i)^r phi_{mean_level + r}(x)``, with the band as its
    ``state`` and ``system`` attributes.
    """

    def sampler(x: np.ndarray) -> np.ndarray:
        return _band_psi(state, system, x)

    sampler.state, sampler.system = state, system
    return sampler


def _band_psi(state: EnergyBandState, system: OscillatorSystemSpec, x, with_slope=False):
    """``psi`` of a band at ``x``, or with ``with_slope`` the tuple of ``psi``,
    ``psi'`` and ``sum_r |w_r phi_r|^2`` (the density its levels carry one by
    one) from one table over the levels ``lo - 1 .. hi + 1``, by the ladder
    identity ``phi_n' = sqrt(m omega / hbar) (sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1})``.
    """
    n = state.levels
    weights = state.coefficients * (-1j) ** state.offsets
    if not with_slope:
        return weights @ eigenfunction_table(n, x, system).astype(complex)
    # at lo = 0 the row below is level 0 again, and it takes weight sqrt(0/2) = 0
    table = eigenfunction_table(np.maximum(np.arange(n[0] - 1, n[-1] + 2), 0), x, system)
    alpha = np.sqrt(system.mass * system.renormalized_frequency / system.hbar)
    down, up = weights * np.sqrt(n / 2.0), weights * np.sqrt((n + 1) / 2.0)
    slope = alpha * (down @ table[:-2] - up @ table[2:])
    return weights @ table[1:-1], slope, np.abs(weights) ** 2 @ table[1:-1] ** 2


@dataclass(frozen=True)
class WkbAmplitudes:
    """Branch amplitudes of a semiclassical band state on its mean-level orbit.

    ``g_plus`` and ``g_minus`` are the slowly varying amplitudes multiplying
    ``exp(+iS/hbar)`` and ``exp(-iS/hbar)``, with amplitude scale
    ``sqrt(m omega / (2 pi p_cl(x)))``; for a pure level both moduli reduce
    to that scale, and both vanish identically outside the classically
    allowed region. Their squared moduli ``rho_plus``/``rho_minus`` are the
    branch position densities; their sum integrates to one over the orbit.
    :meth:`amplitudes` evaluates both branches from one sum over the band,
    with the band's ``(2, band)`` coefficient rows and ``(band,)`` phase
    rates built once per instance. The oscillator is the orbit's.
    """

    state: EnergyBandState
    orbit: ClassicalOrbit
    _rows: np.ndarray = field(init=False, repr=False, compare=False)
    _rates: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        r = self.state.offsets
        c = self.state.coefficients
        # g_minus is the conjugate of a sum over conj(c_r) exp(+i r theta), so
        # both branches come from one product with the same phases
        object.__setattr__(self, "_rows", np.stack([c * (-1.0) ** r, np.conjugate(c)]))
        object.__setattr__(self, "_rates", 1j * r)

    def amplitudes(self, x: float | np.ndarray) -> tuple:
        """``(g_plus, g_minus)`` at ``x``, each of shape ``(len(x),)``; for a
        Python float, two complex scalars, with float arithmetic for all but
        the sum over the band."""
        lib, x = elementwise(x)
        if lib is np:
            x = np.atleast_1d(x)
        phases = np.exp(np.multiply.outer(self._rates, self.orbit.angle(x)))
        plus, conj_minus = self._rows @ phases
        p = self.orbit.classical_momentum(x)
        m = self.orbit.system.mass
        w = self.orbit.system.renormalized_frequency
        # p vanishes on and beyond the turning points, where both amplitudes do
        scale = lib.sqrt(m * w / (2.0 * lib.pi * lib.where(p > 0.0, p, np.inf)))
        return scale * plus, scale * np.conjugate(conj_minus)


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
        Must share ``orbit.system``'s mass, renormalized frequency and hbar
        (else ``ValueError``).

    Returns
    -------
    WkbAmplitudes
    """
    require_orbit_system(system, orbit)
    return WkbAmplitudes(state=state, orbit=orbit)


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
