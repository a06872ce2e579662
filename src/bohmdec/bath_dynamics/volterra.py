"""Response function of the coupled system: normal modes or a Volterra march.

Every central transfer block reduces to the response ``g = m w0 T_xp`` of
the central position to its own momentum, which solves

    g(t) = sin(w0 t) + integral_0^t chi(t - t') g(t') dt'

for a memory kernel ``chi`` spread over the environment's spectrum.

A finite bath and the center form one quadratic Hamiltonian, so their flow is
a finite trigonometric sum over the normal modes (Ullersma, Physica 32, 27
(1966); Haake & Reibold, PRA 32, 2462 (1985)). In the coordinates
``y = sqrt(m) q`` over ``(x, q_1, ..., q_N)`` the potential is
``y^T V y / 2`` for the arrowhead Hessian ``V``: ``w0^2`` in the corner,
``omega_r^2`` on the diagonal and ``kappa_r / sqrt(m m_r)`` on the border.
One ``eigh`` gives ``V = U W^2 U^T`` and
``g(t) = w0 sum_k U_0k^2 sin(W_k t) / W_k``; the table keeps the basis, from
which :func:`~bohmdec.bath_dynamics.matrices.exact_bath_matrices` reads
every block.

The ohmic continuum has no such basis. Its kernel has a closed form
(:meth:`~bohmdec.bath_dynamics.spectral.SpectralDensity.kernel_tables`), and
the solve marches the product-integration rule forward; because
``chi(0) = 0`` every step is explicit. End-corrected (Gregory) trapezoidal
weights keep the global error of ``g`` and ``g_dot`` at fourth order in the
step; ``g_ddot``, taken from the differentiated integral equation, is third
order. Each step reweights the history with its own Gregory weights and
takes ``g`` and both derivatives from one matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._guards import freeze_fields, require_positive
from ._trig import phase_sums
from .spectral import BathSpec, SpectralDensity

__all__ = ["GKernelTable", "NormalModeBasis", "solve_g_kernel"]

_POINTS_PER_PERIOD = 20
# Gregory end corrections of order 4: the first three weights replace the
# trapezoid's 1/2 edge weight; the interior stays at 1.
_GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
# Fewest samples that take the end corrections; shorter tables use the
# trapezoid.
_GREGORY_SAMPLES = 7


def _gregory_weights(n: int, step: float) -> np.ndarray:
    """Weights for integrating a table of ``n >= 2`` equally spaced samples.

    Parameters
    ----------
    n : int
        Number of samples (the integral runs over ``(n - 1) * step``).
    step : float
        Grid spacing.

    Returns
    -------
    numpy.ndarray
        Weight vector ``w`` with ``integral ~= w @ samples``. For ``n >= 7``
        the rule is fourth order; shorter tables fall back to the plain
        trapezoid, which is exact enough for the vanishing-at-origin
        integrands it is used on.
    """
    w = np.ones(n)
    if n >= _GREGORY_SAMPLES:
        w[:3] = _GREGORY_EDGE
        w[-3:] = _GREGORY_EDGE[::-1]
    else:
        w[0] = 0.5
        w[-1] = 0.5
    return w * step


@dataclass(frozen=True)
class NormalModeBasis:
    """Normal modes of the central oscillator coupled to a finite bath.

    Attributes
    ----------
    bath : BathSpec
        The bath the basis was built for.
    root_masses : numpy.ndarray
        ``sqrt`` of ``(m, m_1, ..., m_N)``, mapping ``q`` to ``y = sqrt(m) q``.
    frequencies : numpy.ndarray
        Normal-mode frequencies ``W``, ascending, shape ``(N + 1,)``.
    vectors : numpy.ndarray
        Orthogonal ``U`` with ``V = U diag(W^2) U^T``; column ``k`` is mode
        ``k`` over ``(x, q_1, ..., q_N)``.
    """

    bath: BathSpec
    root_masses: np.ndarray
    frequencies: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        freeze_fields(self, ("root_masses", "frequencies", "vectors"))


def _normal_modes(bath: BathSpec, bare_frequency: float, mass: float) -> NormalModeBasis:
    """Diagonalize the arrowhead Hessian of ``bath`` coupled to the center."""
    roots = np.sqrt(np.concatenate(([mass], bath.masses)))
    hessian = np.diag(np.concatenate(([bare_frequency**2], bath.frequencies**2)))
    hessian[0, 1:] = hessian[1:, 0] = bath.couplings / (roots[0] * roots[1:])
    squares, vectors = np.linalg.eigh(hessian)
    if squares[0] <= 0.0:
        raise ValueError(
            f"the coupled Hessian is not positive definite: its smallest eigenvalue "
            f"is {squares[0]:.6g}, so the couplings pull the bare frequency squared "
            f"below zero (see counterterm_bare_frequency)"
        )
    basis = NormalModeBasis(bath, roots, np.sqrt(squares), np.empty((0, 0)))
    # eigh's (N + 1)^2 matrix has no other holder, so it is frozen in place
    # rather than copied as a caller's array is (2.1 MB at N = 512)
    vectors.flags.writeable = False
    object.__setattr__(basis, "vectors", vectors)
    return basis


@dataclass(frozen=True)
class GKernelTable:
    """Sampled response function on a uniform time grid.

    Attributes
    ----------
    times : numpy.ndarray
        Uniform grid ``0, step, ..., n step`` covering the requested span.
    values, first_derivative, second_derivative : numpy.ndarray
        ``g`` and its first two time derivatives at the nodes.
    bare_frequency : float
        Uncoupled oscillator frequency used in the source term.
    mass : float
        Central mass entering the kernel prefactor.
    step : float
    basis : NormalModeBasis or None
        Normal modes of a line spectrum, which hold the exact flow at every
        time; ``None`` for the ohmic continuum.
    """

    times: np.ndarray
    values: np.ndarray
    first_derivative: np.ndarray
    second_derivative: np.ndarray
    bare_frequency: float
    mass: float
    step: float
    basis: NormalModeBasis | None = None

    def __post_init__(self) -> None:
        freeze_fields(self, ("times", "values", "first_derivative", "second_derivative"))


def solve_g_kernel(
    spectral: SpectralDensity,
    bare_frequency: float,
    t_max: float,
    step: float,
    *,
    mass: float | None = None,
) -> GKernelTable:
    """Tabulate the response function and its derivatives over ``[0, t_max]``.

    Parameters
    ----------
    spectral : SpectralDensity
    bare_frequency : float
        Uncoupled frequency of the central oscillator.
    t_max, step : float
        Span and uniform step of the output grid. For the ohmic density the
        step must resolve the faster of the bare frequency and the cutoff
        with at least 20 points per period; a line spectrum's closed-form
        sums are exact at any step.
    mass : float, optional
        Central oscillator mass. May be omitted for an ohmic density, whose
        stored mass cancels against the kernel prefactor; a discrete density
        requires it explicitly.

    Returns
    -------
    GKernelTable
        For a line spectrum the table holds the normal-mode basis and the
        closed-form sums, summed over the modes at each node by
        :func:`~bohmdec.bath_dynamics._trig.phase_sums`; for the ohmic
        density, the Volterra march.

    Raises
    ------
    ValueError
        If an argument is NaN, inf or not positive, the step is too coarse
        for the ohmic march, the mass is missing for a line spectrum, or the
        coupled Hessian of a line spectrum is not positive definite (the
        message names its smallest eigenvalue).

    Notes
    -----
    March step ``j`` adds ``sum_{k<j} w_k^(j) g_k K(t_j - t_k)`` for the
    stack ``K = (chi, chi_dot, chi_ddot)``, with ``w^(j)`` the
    :func:`_gregory_weights` of ``j + 1`` samples. The weighted history
    ``w_k^(j) g_k`` is rebuilt at every step, so the march costs about
    ``5 n^2 / 2`` multiply-adds for ``n`` steps: the three kernel rows of
    each matrix-vector product and the reweighting.
    """
    if mass is None:
        if spectral.kind != "ohmic":
            raise ValueError("a line spectrum requires the central mass")
        mass = spectral.mass
    for name, value in (
        ("bare_frequency", bare_frequency), ("t_max", t_max), ("step", step), ("mass", mass)
    ):
        require_positive(name, value)

    n = int(np.ceil(t_max / step - 1e-9))
    times = np.arange(n + 1) * step
    scalars = (float(bare_frequency), float(mass), float(step))
    if spectral.kind == "discrete":
        basis = _normal_modes(spectral.bath, bare_frequency, mass)
        # g = w0 sum_k U_0k^2 sin(W_k t) / W_k, differentiated term by term
        weight = bare_frequency * basis.vectors[0] ** 2
        w = basis.frequencies
        sums = phase_sums(w, step, np.stack([weight / w, weight, -weight * w], axis=1), n + 1)
        g, g_dot, g_ddot = sums[:, 0].imag, sums[:, 1].real, sums[:, 2].imag
        return GKernelTable(times, g, g_dot, g_ddot, *scalars, basis)

    fastest = max(bare_frequency, spectral.cutoff)
    coarsest = 2.0 * np.pi / (_POINTS_PER_PERIOD * fastest)
    if step > coarsest * (1.0 + 1e-12):
        raise ValueError(
            f"step {step:g} is too coarse: resolving {fastest:g} rad/time with "
            f"{_POINTS_PER_PERIOD} points per period needs step <= {coarsest:g}"
        )
    tables = spectral.kernel_tables(bare_frequency, mass, step, n + 1)
    # column n - j + k holds the kernels at lag j - k, so the lags of step j
    # are the last j columns, in the order of the history
    lagged = np.stack([table[n:0:-1] for table in tables])

    values = np.sin(bare_frequency * times)
    first = bare_frequency * np.cos(bare_frequency * times)
    second = -bare_frequency**2 * values
    history = np.empty(n)
    for j in range(1, n + 1):
        history[:j] = _gregory_weights(j + 1, step)[:j] * values[:j]
        memory = lagged[:, n - j :] @ history[:j]
        values[j] += memory[0]
        first[j] += memory[1]
        second[j] += memory[2]
    return GKernelTable(times, values, first, second, *scalars)
