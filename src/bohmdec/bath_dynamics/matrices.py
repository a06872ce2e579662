"""Phase-space transfer blocks of the coupled oscillator network.

Because the total Hamiltonian is quadratic, phase-space points evolve
linearly: the central pair picks up ``A(t)`` from itself and ``B_r(t)`` from
each mode, while mode ``r`` picks up ``C_r(t)`` from the center and
``D_rs(t)`` from mode ``s``. Every block reduces to the scalar response
function ``g`` and weighted integrals of it, so a solved
:class:`~bohmdec.bath_dynamics.volterra.GKernelTable` is all the exact
assembly needs. Negative times come from the parity of those integrals (odd
in ``t`` for positions, even for the velocity-like entries) rather than a
second solve.

The coupling convention is ``H = H_S + sum_r H_r + x sum_r kappa_r q_r``:
the center's momentum is driven by ``-sum_r kappa_r q_r`` and mode ``r``'s by
``-kappa_r x``. On ``z = (x, p, q_1, p_1, ...)`` the blocks tile the dense
transfer matrix ``T(t) = exp(L t)`` of that linear flow.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import CouplingStrengthWarning, NumericalFailureError
from ..phase_space import OscillatorSystemSpec
from ._trig import one_minus_cos, pair_kernel, t_minus_sin
from .spectral import BathSpec
from .volterra import GKernelTable, gregory_weights

__all__ = [
    "BathPropagators",
    "exact_bath_matrices",
    "reduced_M_from_bath",
    "reversibility_residuals",
    "weak_coupling_matrices",
]

_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _flip_time(blocks: np.ndarray) -> np.ndarray:
    """Apply the time-reversal parity (negate off-diagonal entries)."""
    return blocks * _FLIP


def _free_rotation(
    masses: np.ndarray, frequencies: np.ndarray, t: float
) -> np.ndarray:
    """Stack of single-mode rotations ``exp`` of the harmonic generator."""
    angle = frequencies * t
    cos = np.cos(angle)
    sin = np.sin(angle)
    out = np.empty((masses.size, 2, 2))
    out[:, 0, 0] = cos
    out[:, 0, 1] = sin / (masses * frequencies)
    out[:, 1, 0] = -masses * frequencies * sin
    out[:, 1, 1] = cos
    return out


def _cross_blocks(
    bath: BathSpec,
    m: float,
    w: float,
    h: np.ndarray,
    h_dot: np.ndarray,
    h_ddot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mode-to-center and center-to-mode blocks from the response integrals.

    ``h``, ``h_dot`` and ``h_ddot`` are the per-mode response integrals and
    their time derivatives; ``w`` is the central frequency they were built
    with.
    """
    mode_m = bath.masses
    scale = bath.couplings / (m * mode_m * w * bath.frequencies)
    b = np.empty((bath.n_modes, 2, 2))
    b[:, 0, 0] = scale * mode_m * h_dot
    b[:, 0, 1] = scale * h
    b[:, 1, 0] = scale * m * mode_m * h_ddot
    b[:, 1, 1] = scale * m * h_dot
    c = np.empty_like(b)
    c[:, 0, 0] = scale * m * h_dot
    c[:, 0, 1] = scale * h
    c[:, 1, 0] = scale * m * mode_m * h_ddot
    c[:, 1, 1] = scale * mode_m * h_dot
    return b, c


@dataclass(frozen=True)
class BathPropagators:
    """Transfer blocks of the linear flow at one time.

    Attributes
    ----------
    time : float
    mode : str
        ``"exact"`` (from a solved response table) or ``"weak_coupling"``
        (closed forms, second order in the couplings).
    small_angle : bool
        Weak-coupling blocks additionally expanded for ``omega t << 1``; the
        central block is then the identity.
    system : OscillatorSystemSpec
    bath : BathSpec
    a : numpy.ndarray
        Central 2x2 block.
    b, c : numpy.ndarray
        Mode-to-center and center-to-mode blocks, shape ``(N, 2, 2)``.
    d_corrections : numpy.ndarray or None
        Off-diagonal-capable corrections, ``(N, N, 2, 2)``; ``None`` when not
        assembled (always in weak-coupling mode, and for exact blocks unless
        requested).

    The mode-to-mode block ``D_rs`` is ``d_free[r]`` on the diagonal plus
    ``d_corrections[r, s]``; ``d_free`` is derived from the bath and the time.
    """

    time: float
    mode: str
    small_angle: bool
    system: OscillatorSystemSpec
    bath: BathSpec
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d_corrections: np.ndarray | None

    def __post_init__(self) -> None:
        n = self.bath.n_modes
        if self.a.shape != (2, 2):
            raise ValueError("central block must be 2x2")
        for name in ("b", "c"):
            if getattr(self, name).shape != (n, 2, 2):
                raise ValueError(f"{name} must have shape ({n}, 2, 2)")
        if self.d_corrections is not None and self.d_corrections.shape != (n, n, 2, 2):
            raise ValueError(f"d_corrections must have shape ({n}, {n}, 2, 2)")

    @property
    def n_modes(self) -> int:
        return self.bath.n_modes

    @property
    def d_free(self) -> np.ndarray:
        """Diagonal free-rotation part of the mode-to-mode blocks, ``(N, 2, 2)``."""
        return _free_rotation(self.bath.masses, self.bath.frequencies, self.time)


def exact_bath_matrices(
    bath: BathSpec,
    system: OscillatorSystemSpec,
    g_table: GKernelTable,
    t: float,
    include_d_corrections: bool = False,
) -> BathPropagators:
    """Assemble the exact transfer blocks at time ``t`` from a response table.

    All integrals of ``g`` against the mode oscillations are evaluated with
    the same end-corrected product-integration weights used by the solver, so
    the blocks inherit the table's accuracy. ``t`` may be negative (parity
    handles the sign) but ``|t|`` must land on a table node.

    Parameters
    ----------
    bath : BathSpec
    system : OscillatorSystemSpec
        Its bare frequency and mass must match the ones the table was solved
        with.
    g_table : GKernelTable
    t : float
    include_d_corrections : bool, optional
        Assemble the ``(N, N, 2, 2)`` mode-to-mode corrections, which
        :func:`reversibility_residuals` needs. Off by default: their memory
        cost is quadratic in the mode count. The trigonometric tables are
        contracted once either way.

    Returns
    -------
    BathPropagators
    """
    if abs(g_table.bare_frequency - system.bare_frequency) > 1e-12 * system.bare_frequency:
        raise ValueError(
            "g_table was solved for a different bare frequency than the system's"
        )
    if abs(g_table.mass - system.mass) > 1e-12 * system.mass:
        raise ValueError("g_table was solved for a different central mass")

    index = g_table.node_index(t)
    nodes = g_table.times[: index + 1]
    g_now = g_table.values[index]
    gdot_now = g_table.first_derivative[index]
    gddot_now = g_table.second_derivative[index]

    m = system.mass
    w0 = system.bare_frequency
    mode_m = bath.masses
    mode_w = bath.frequencies
    kappa = bath.couplings

    weights = gregory_weights(index + 1, g_table.step)
    weighted_g = weights * g_table.values[index::-1]
    # the weighted response and its first tau-moment, contracted against each
    # trigonometric table in one pass
    moments = np.stack([weighted_g, nodes * weighted_g], axis=1)
    angles = mode_w[:, None] * nodes[None, :]
    sin_sum, tau_sin = (np.sin(angles) @ moments).T
    cos_sum, tau_cos = (np.cos(angles) @ moments).T
    h = -sin_sum
    h_dot = -mode_w * cos_sum
    h_ddot = -mode_w * g_now - mode_w**2 * h

    a = np.array(
        [
            [gdot_now / w0, g_now / (m * w0)],
            [m * gddot_now / w0, gdot_now / w0],
        ]
    )
    b, c = _cross_blocks(bath, m, w0, h, h_dot, h_ddot)

    d_corrections = None
    if include_d_corrections:
        # pair (r, s) of the mode sector: r along rows, s along columns
        w_r, w_s = mode_w[:, None], mode_w[None, :]
        m_r, m_s = mode_m[:, None], mode_m[None, :]
        tied = np.abs(w_r - w_s) <= 1e-12 * (w_r + w_s)
        safe = np.where(tied, 1.0, w_r**2 - w_s**2)
        f = (w_s * h[:, None] - w_r * h[None, :]) / safe
        f_dot = (w_s * h_dot[:, None] - w_r * h_dot[None, :]) / safe
        f_ddot = w_r * w_s * (w_s * h[None, :] - w_r * h[:, None]) / safe
        f_tie = (-h - mode_w * tau_cos) / (2.0 * mode_w)
        f_dot_tie = 0.5 * mode_w * tau_sin
        f_ddot_tie = 0.5 * mode_w * (-h + mode_w * tau_cos)
        f = np.where(tied, f_tie[:, None], f)
        f_dot = np.where(tied, f_dot_tie[:, None], f_dot)
        f_ddot = np.where(tied, f_ddot_tie[:, None], f_ddot)

        pair_scale = (kappa[:, None] * kappa[None, :]) / (m * m_r * m_s * w0 * w_r * w_s)
        d_corrections = np.empty((bath.n_modes, bath.n_modes, 2, 2))
        d_corrections[:, :, 0, 0] = pair_scale * m_s * f_dot
        d_corrections[:, :, 0, 1] = pair_scale * f
        d_corrections[:, :, 1, 0] = pair_scale * m_r * m_s * f_ddot
        d_corrections[:, :, 1, 1] = pair_scale * m_r * f_dot

    if t < 0.0:
        a, b, c = _flip_time(a), _flip_time(b), _flip_time(c)
        if d_corrections is not None:
            d_corrections = _flip_time(d_corrections)

    return BathPropagators(
        time=float(t),
        mode="exact",
        small_angle=False,
        system=system,
        bath=bath,
        a=a,
        b=b,
        c=c,
        d_corrections=d_corrections,
    )


def weak_coupling_matrices(
    bath: BathSpec,
    system: OscillatorSystemSpec,
    t: float,
    small_angle: bool = False,
) -> BathPropagators:
    """Closed-form transfer blocks to leading order in the couplings.

    At this order the central block is the free rotation at the renormalized
    frequency, the cross blocks follow from the free response, and the
    mode-to-mode blocks stay diagonal. With ``small_angle=True`` the
    additional ``omega t << 1`` expansion is applied: the central block
    becomes the identity and the cross blocks keep only the mode oscillation.

    A :class:`~bohmdec.errors.CouplingStrengthWarning` is emitted when
    ``max_r kappa_r^2 / (m m_r omega omega_r)`` exceeds one percent of
    ``omega^2``, the regime bound for dropping the higher orders.
    """
    m = system.mass
    w = system.renormalized_frequency
    mode_m = bath.masses
    mode_w = bath.frequencies
    kappa = bath.couplings

    if bath.n_modes:
        strength = float(np.max(kappa**2 / (m * mode_m * w * mode_w)))
        if strength > 0.01 * w**2:
            warnings.warn(
                f"coupling measure {strength:.3g} exceeds 0.01 omega^2 = "
                f"{0.01 * w**2:.3g}; second-order block errors are not small",
                CouplingStrengthWarning,
                stacklevel=2,
            )

    if small_angle:
        a = np.eye(2)
        h = -w * t_minus_sin(mode_w * t) / mode_w**2
        h_dot = -w * one_minus_cos(mode_w * t) / mode_w
        h_ddot = -w * np.sin(mode_w * t)
    else:
        angle = w * t
        a = np.array(
            [
                [np.cos(angle), np.sin(angle) / (m * w)],
                [-m * w * np.sin(angle), np.cos(angle)],
            ]
        )
        h, h_dot, h_ddot = (-kernel for kernel in pair_kernel(mode_w, w, t))

    b, c = _cross_blocks(bath, m, w, h, h_dot, h_ddot)

    return BathPropagators(
        time=float(t),
        mode="weak_coupling",
        small_angle=small_angle,
        system=system,
        bath=bath,
        a=a,
        b=b,
        c=c,
        d_corrections=None,
    )


def reduced_M_from_bath(props: BathPropagators, bath: BathSpec) -> np.ndarray:
    """Smearing matrix of the reduced propagator from the exact blocks.

    Tracing the thermal modes out of the full Gaussian flow leaves the
    central point smeared by

        M = A^-1 (sum_r coth(beta_r / 2) B_r Lambda_r^-1 B_r^T) (A^-1)^T

    where ``Lambda_r^-1 = hbar diag(1/(m_r omega_r), m_r omega_r)`` is the
    inverse coherent-state precision of mode ``r``.

    Raises
    ------
    ValueError
        If the propagators are not exact-mode or the bath does not match.
    NumericalFailureError
        If the central block is numerically singular.
    """
    if props.mode != "exact":
        raise ValueError("the reduced smearing matrix requires exact-mode blocks")
    if bath.n_modes != props.n_modes:
        raise ValueError("bath does not match the propagators' mode count")
    det = float(np.linalg.det(props.a))
    if abs(det) <= 1e-14 * float(np.abs(props.a).max()) ** 2:
        raise NumericalFailureError(
            "central transfer block is singular; the reduced map is not invertible here"
        )
    coth = 1.0 / np.tanh(0.5 * bath.thermal_ratios)
    lam_inv = np.zeros((bath.n_modes, 2, 2))
    lam_inv[:, 0, 0] = bath.hbar / (bath.masses * bath.frequencies)
    lam_inv[:, 1, 1] = bath.hbar * bath.masses * bath.frequencies
    core = np.einsum("r,rij,rjk,rlk->il", coth, props.b, lam_inv, props.b)
    a_inv = np.linalg.inv(props.a)
    return a_inv @ core @ a_inv.T


def _transfer_matrix(props: BathPropagators) -> np.ndarray:
    """Dense ``(2N + 2)``-square transfer matrix ``T(t)`` on ``(x, p, q_1, p_1, ...)``."""
    n = props.n_modes
    modes = np.transpose(props.d_corrections, (0, 2, 1, 3)).copy()
    diagonal = np.arange(n)
    modes[diagonal, :, diagonal, :] += props.d_free
    out = np.empty((2 * n + 2, 2 * n + 2))
    out[:2, :2] = props.a
    out[:2, 2:] = np.transpose(props.b, (1, 0, 2)).reshape(2, 2 * n)
    out[2:, :2] = props.c.reshape(2 * n, 2)
    out[2:, 2:] = modes.reshape(2 * n, 2 * n)
    return out


def _spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, from the top eigenvalue of the smaller Gram matrix."""
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def reversibility_residuals(
    forward: BathPropagators, backward: BathPropagators
) -> dict[str, float]:
    """Residual norms of the forward/backward closure identities.

    ``forward`` and ``backward`` must be exact-mode blocks (with mode-to-mode
    corrections assembled) at ``t`` and ``-t``. The first four keys are the
    blocks of the round trip ``R = T(t) T(-t) - 1``; the rest probe the
    block-inverse construction of the mode sector,

        Dinv(t) = D(-t) - C(-t) A(-t)^-1 B(-t)

    its transfer to the cross block, and the Schur-complement form of the
    inverse central block. Because ``R_mc = C(t) A(-t) + D(t) C(-t)``, the
    block-inverse residual is a rank-2 update of the mode block of ``R``,

        D(t) Dinv(t) - 1 = R_mm - R_mc A(-t)^-1 B(-t)

    so the only cubic product is ``T(t) T(-t)``. All values are spectral
    norms of the residual matrices.
    """
    if forward.mode != "exact" or backward.mode != "exact":
        raise ValueError("reversibility checks need exact-mode blocks")
    if forward.d_corrections is None or backward.d_corrections is None:
        raise ValueError("reversibility checks need the mode-to-mode corrections")
    if abs(forward.time + backward.time) > 1e-12 * max(1.0, abs(forward.time)):
        raise ValueError("backward blocks must be evaluated at minus the forward time")
    t_f = _transfer_matrix(forward)
    t_b = _transfer_matrix(backward)
    round_trip = t_f @ t_b
    round_trip[np.diag_indices_from(round_trip)] -= 1.0

    a_f, b_f, c_f, d_f = t_f[:2, :2], t_f[:2, 2:], t_f[2:, :2], t_f[2:, 2:]
    a_b, b_b, c_b = t_b[:2, :2], t_b[:2, 2:], t_b[2:, :2]
    a_f_inv = np.linalg.inv(a_f)
    d_inv_backward = d_f - c_f @ a_f_inv @ b_f
    cross = b_b @ d_inv_backward
    residuals = {
        "round_trip_center": round_trip[:2, :2],
        "round_trip_modes": round_trip[2:, 2:],
        "round_trip_center_modes": round_trip[:2, 2:],
        "round_trip_modes_center": round_trip[2:, :2],
        "block_inverse": round_trip[2:, 2:] - round_trip[2:, :2] @ np.linalg.solve(a_b, b_b),
        "inverse_cross_transfer": cross + a_f_inv @ b_f,
        "inverse_schur_center": a_b - cross @ c_b - a_f_inv,
    }
    return {name: _spectral_norm(res) for name, res in residuals.items()}
