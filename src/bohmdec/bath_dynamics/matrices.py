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
    d_free : numpy.ndarray
        Diagonal free-rotation part of the mode-to-mode blocks, ``(N, 2, 2)``.
    d_corrections : numpy.ndarray or None
        Off-diagonal-capable corrections, ``(N, N, 2, 2)``; ``None`` when not
        assembled (always in weak-coupling mode, and for exact blocks unless
        requested).
    """

    time: float
    mode: str
    small_angle: bool
    system: OscillatorSystemSpec
    bath: BathSpec
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d_free: np.ndarray
    d_corrections: np.ndarray | None

    def __post_init__(self) -> None:
        n = self.bath.n_modes
        if self.a.shape != (2, 2):
            raise ValueError("central block must be 2x2")
        for name in ("b", "c", "d_free"):
            if getattr(self, name).shape != (n, 2, 2):
                raise ValueError(f"{name} must have shape ({n}, 2, 2)")
        if self.d_corrections is not None and self.d_corrections.shape != (n, n, 2, 2):
            raise ValueError(f"d_corrections must have shape ({n}, {n}, 2, 2)")

    @property
    def n_modes(self) -> int:
        return self.bath.n_modes

    @property
    def has_d_corrections(self) -> bool:
        return self.d_corrections is not None

    def dense_d(self) -> np.ndarray:
        """Mode sector as a dense ``(2N, 2N)`` matrix."""
        n = self.n_modes
        if self.has_d_corrections:
            dense = np.transpose(self.d_corrections, (0, 2, 1, 3)).reshape(2 * n, 2 * n).copy()
        else:
            if self.mode == "exact":
                raise ValueError(
                    "mode-to-mode corrections were not assembled for this bath"
                )
            dense = np.zeros((2 * n, 2 * n))
        for r in range(n):
            dense[2 * r : 2 * r + 2, 2 * r : 2 * r + 2] += self.d_free[r]
        return dense


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
        cost is quadratic in the mode count.

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
    angles = mode_w[:, None] * nodes[None, :]
    sin_sum = np.sin(angles) @ weighted_g
    cos_sum = np.cos(angles) @ weighted_g
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
        tau_sin = (nodes[None, :] * np.sin(angles)) @ weighted_g
        tau_cos = (nodes[None, :] * np.cos(angles)) @ weighted_g
        split = mode_w[:, None] ** 2 - mode_w[None, :] ** 2
        tied = np.abs(mode_w[:, None] - mode_w[None, :]) <= 1e-12 * (
            mode_w[:, None] + mode_w[None, :]
        )
        safe = np.where(tied, 1.0, split)
        f = (mode_w[None, :] * h[:, None] - mode_w[:, None] * h[None, :]) / safe
        f_dot = (mode_w[None, :] * h_dot[:, None] - mode_w[:, None] * h_dot[None, :]) / safe
        f_ddot = (
            mode_w[:, None]
            * mode_w[None, :]
            * (mode_w[None, :] * h[None, :] - mode_w[:, None] * h[:, None])
            / safe
        )
        f_tie = (-h - mode_w * tau_cos) / (2.0 * mode_w)
        f_dot_tie = 0.5 * mode_w * tau_sin
        f_ddot_tie = 0.5 * mode_w * (-h + mode_w * tau_cos)
        f = np.where(tied, f_tie[:, None], f)
        f_dot = np.where(tied, f_dot_tie[:, None], f_dot)
        f_ddot = np.where(tied, f_ddot_tie[:, None], f_ddot)

        pair_scale = (kappa[:, None] * kappa[None, :]) / (
            m * mode_m[:, None] * mode_m[None, :] * w0 * mode_w[:, None] * mode_w[None, :]
        )
        d_corrections = np.empty((bath.n_modes, bath.n_modes, 2, 2))
        d_corrections[:, :, 0, 0] = pair_scale * mode_m[None, :] * f_dot
        d_corrections[:, :, 0, 1] = pair_scale * f
        d_corrections[:, :, 1, 0] = pair_scale * mode_m[:, None] * mode_m[None, :] * f_ddot
        d_corrections[:, :, 1, 1] = pair_scale * mode_m[:, None] * f_dot

    if t < 0.0:
        a = _flip_time(a)
        b = _flip_time(b)
        c = _flip_time(c)
        if d_corrections is not None:
            d_corrections = _flip_time(d_corrections)
    d_free = _free_rotation(mode_m, mode_w, t)

    return BathPropagators(
        time=float(t),
        mode="exact",
        small_angle=False,
        system=system,
        bath=bath,
        a=a,
        b=b,
        c=c,
        d_free=d_free,
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
        d_free=_free_rotation(mode_m, mode_w, t),
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


def _cross_product_blocks(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Dense ``(2N, 2N)`` matrix with blocks ``left_r @ right_s``."""
    n = left.shape[0]
    cross = np.einsum("rab,sbc->rsac", left, right)
    return np.transpose(cross, (0, 2, 1, 3)).reshape(2 * n, 2 * n)


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
    blocks of the round trip ``T(t) T(-t) = 1``; the rest probe the
    block-inverse construction of the mode sector,

        Dinv(t) = D(-t) - C(-t) A(-t)^-1 B(-t)

    its transfer to the cross block, and the Schur-complement form of the
    inverse central block. All values are spectral norms of the residual
    matrices.
    """
    if forward.mode != "exact" or backward.mode != "exact":
        raise ValueError("reversibility checks need exact-mode blocks")
    if not (forward.has_d_corrections and backward.has_d_corrections):
        raise ValueError("reversibility checks need the mode-to-mode corrections")
    if abs(forward.time + backward.time) > 1e-12 * max(1.0, abs(forward.time)):
        raise ValueError("backward blocks must be evaluated at minus the forward time")
    n = forward.n_modes
    eye2n = np.eye(2 * n)

    a_f, a_b = forward.a, backward.a
    b_f, b_b = forward.b, backward.b
    c_f, c_b = forward.c, backward.c
    d_f = forward.dense_d()
    d_b = backward.dense_d()
    b_f_row = np.transpose(b_f, (1, 0, 2)).reshape(2, 2 * n)
    b_b_row = np.transpose(b_b, (1, 0, 2)).reshape(2, 2 * n)
    c_f_col = c_f.reshape(2 * n, 2)
    c_b_col = c_b.reshape(2 * n, 2)

    residuals = {
        "round_trip_center": a_f @ a_b + b_f_row @ c_b_col - np.eye(2),
        "round_trip_modes": _cross_product_blocks(c_f, b_b) + d_f @ d_b - eye2n,
        "round_trip_center_modes": a_f @ b_b_row + b_f_row @ d_b,
        "round_trip_modes_center": c_f_col @ a_b + d_f @ c_b_col,
    }

    a_f_inv = np.linalg.inv(a_f)
    a_b_inv = np.linalg.inv(a_b)
    d_inv_forward = d_b - c_b_col @ a_b_inv @ b_b_row
    d_inv_backward = d_f - c_f_col @ a_f_inv @ b_f_row
    residuals["block_inverse"] = d_f @ d_inv_forward - eye2n
    residuals["inverse_cross_transfer"] = b_b_row @ d_inv_backward + a_f_inv @ b_f_row
    residuals["inverse_schur_center"] = (
        a_b - b_b_row @ d_inv_backward @ c_b_col - a_f_inv
    )
    return {name: _spectral_norm(res) for name, res in residuals.items()}
