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
transfer matrix ``T(t) = exp(L t)`` of that linear flow, which exact blocks
hold whole when asked for (:attr:`BathPropagators.transfer`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import CouplingStrengthWarning, NumericalFailureError
from ..phase_space import OscillatorSystemSpec
from ._trig import one_minus_cos, pair_kernel, phase_sums, t_minus_sin
from .spectral import BathSpec, _require_finite_scalar
from .volterra import GKernelTable, gregory_weights

__all__ = [
    "BathPropagators",
    "exact_bath_matrices",
    "reduced_M_from_bath",
    "reversibility_residuals",
    "weak_coupling_matrices",
]

_FLIP = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Rows of the round trip and of its block-inverse update formed per matrix
# product. At N = 512 a 128-row panel keeps the update's temporary at an
# eighth of a transfer matrix and runs the product within about 10% of one
# whole-matrix product; 16-row panels take about twice its time (one BLAS
# thread, 2-vCPU Xeon).
_PANEL_ROWS = 128


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
    transfer : numpy.ndarray or None
        Dense ``(2N + 2)``-square transfer matrix ``T(t)`` on
        ``(x, p, q_1, p_1, ...)``; ``None`` when not assembled (always in
        weak-coupling mode, and for exact blocks unless requested). Its mode
        sector is the mode-to-mode block ``D``: ``d_free`` on the diagonal
        plus the coupling corrections.
    """

    time: float
    mode: str
    small_angle: bool
    system: OscillatorSystemSpec
    bath: BathSpec
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    transfer: np.ndarray | None

    def __post_init__(self) -> None:
        n = self.bath.n_modes
        if self.a.shape != (2, 2):
            raise ValueError("central block must be 2x2")
        for name in ("b", "c"):
            if getattr(self, name).shape != (n, 2, 2):
                raise ValueError(f"{name} must have shape ({n}, 2, 2)")
        if self.transfer is not None and self.transfer.shape != (2 * n + 2, 2 * n + 2):
            raise ValueError(f"transfer must have shape ({2 * n + 2}, {2 * n + 2})")

    @property
    def n_modes(self) -> int:
        return self.bath.n_modes

    @property
    def d_free(self) -> np.ndarray:
        """Diagonal free-rotation part of the mode-to-mode blocks, ``(N, 2, 2)``."""
        return _free_rotation(self.bath.masses, self.bath.frequencies, self.time)


def _mode_corrections(
    bath: BathSpec,
    stiffness: float,
    h: np.ndarray,
    h_dot: np.ndarray,
    tau_sin: np.ndarray,
    tau_cos: np.ndarray,
    modes: np.ndarray,
) -> None:
    """Write the mode-to-mode corrections at a non-negative time into ``modes``.

    ``modes`` is the mode sector of the dense transfer matrix seen as
    ``(N, 2, N, 2)``, so plane ``modes[:, i, :, j]`` holds entry ``(i, j)``
    of every 2x2 pair block. Pair ``(r, s)`` (``r`` along rows) carries
    ``pair_scale = kappa_r kappa_s / (m omega m_r m_s omega_r omega_s)``
    times the pair integrals

        f      = (omega_s h_r - omega_r h_s) / (omega_r^2 - omega_s^2)
        f_dot  = (omega_s h_dot_r - omega_r h_dot_s) / (omega_r^2 - omega_s^2)
        f_ddot = omega_r omega_s (omega_s h_s - omega_r h_r) / (omega_r^2 - omega_s^2)

    whose tied limits (``omega_r = omega_s``) take the first tau-moments
    ``tau_sin`` and ``tau_cos`` of row ``r``; ``stiffness`` is ``m omega``.
    Each plane is written from two N x N work arrays and one N x N scale
    ``pair_scale / (omega_r^2 - omega_s^2)``; tied pairs (the diagonal and
    any degenerate lines) are then overwritten by index.
    """
    mode_m, mode_w, kappa = bath.masses, bath.frequencies, bath.couplings
    work = np.subtract.outer(mode_w, mode_w)
    spare = np.add.outer(mode_w, mode_w)
    np.abs(work, out=work)
    spare *= 1e-12
    rows, cols = np.nonzero(work <= spare)

    mw = mode_m * mode_w
    scale = np.multiply.outer(kappa / mw, kappa / mw)
    w_sq = mode_w * mode_w
    np.subtract.outer(w_sq, w_sq, out=work)
    work[rows, cols] = 1.0
    scale /= work
    scale /= stiffness

    # f: omega_s h_r - omega_r h_s
    np.multiply.outer(h, mode_w, out=work)
    work -= np.multiply.outer(mode_w, h, out=spare)
    np.multiply(scale, work, out=modes[:, 0, :, 1])
    # f_dot, carrying m_s into the 00 plane and m_r into the 11 plane
    np.multiply.outer(h_dot, mode_w, out=work)
    work -= np.multiply.outer(mode_w, h_dot, out=spare)
    np.multiply(work, mode_m, out=spare)
    np.multiply(scale, spare, out=modes[:, 0, :, 0])
    np.multiply(work, mode_m[:, None], out=spare)
    np.multiply(scale, spare, out=modes[:, 1, :, 1])
    # f_ddot: m_r m_s omega_r omega_s (omega_s h_s - omega_r h_r)
    wh = mode_w * h
    np.subtract(wh, wh[:, None], out=work)
    work *= mw[:, None]
    work *= mw
    np.multiply(scale, work, out=modes[:, 1, :, 0])

    m_r, m_s, w, h_r, cos_r = mode_m[rows], mode_m[cols], mode_w[rows], h[rows], tau_cos[rows]
    pair_scale = kappa[rows] * kappa[cols] / (stiffness * m_r * m_s * w * mode_w[cols])
    f_tie = (-h_r - w * cos_r) / (2.0 * w)
    f_dot_tie = 0.5 * w * tau_sin[rows]
    f_ddot_tie = 0.5 * w * (-h_r + w * cos_r)
    modes[rows, 0, cols, 0] = pair_scale * m_s * f_dot_tie
    modes[rows, 0, cols, 1] = pair_scale * f_tie
    modes[rows, 1, cols, 0] = pair_scale * m_r * m_s * f_ddot_tie
    modes[rows, 1, cols, 1] = pair_scale * m_r * f_dot_tie


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
    the blocks inherit the table's accuracy. The mode phases at the nodes
    come from angle addition over blocks of about ``sqrt(n)`` nodes rather
    than from a modes-by-nodes table of sines and cosines; their round-off
    stays below 1e-14 of the summed absolute weights, far below the table's
    fourth-order truncation. ``t`` may be negative (parity handles the sign)
    but ``|t|`` must land on a table node.

    Parameters
    ----------
    bath : BathSpec
    system : OscillatorSystemSpec
        Its bare frequency and mass must match the ones the table was solved
        with.
    g_table : GKernelTable
    t : float
    include_d_corrections : bool, optional
        Assemble the dense transfer matrix ``T(t)`` with its mode-to-mode
        block (``transfer``), which :func:`reversibility_residuals` needs.
        Off by default: it takes ``8 (2N + 2)^2`` bytes, and building it
        holds three ``N x N`` work arrays more (``24 N^2`` bytes) plus the
        index list of tied pairs. Negative times negate in place the entries
        whose row and column parities differ, ``T(-t) = P T(t) P`` with
        ``P = diag(1, -1, 1, -1, ...)``. The phase sums are formed once
        either way.

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
    mode_w = bath.frequencies

    weights = gregory_weights(index + 1, g_table.step)
    weighted_g = weights * g_table.values[index::-1]
    # the weighted response and its first tau-moment
    moments = np.stack([weighted_g, nodes * weighted_g], axis=1)
    sums = phase_sums(mode_w, g_table.step, moments)
    sin_sum, tau_sin = sums.imag.T
    cos_sum, tau_cos = sums.real.T
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

    transfer = None
    if include_d_corrections:
        n = bath.n_modes
        transfer = np.empty((2 * n + 2, 2 * n + 2))
        transfer[:2, :2] = a
        transfer[:2, 2:] = np.transpose(b, (1, 0, 2)).reshape(2, 2 * n)
        transfer[2:, :2] = c.reshape(2 * n, 2)
        modes = transfer[2:, 2:].reshape(n, 2, n, 2)
        _mode_corrections(bath, m * w0, h, h_dot, tau_sin, tau_cos, modes)
        if t < 0.0:
            # P T P: negate the entries whose row and column parities differ
            for odd in (transfer[::2, 1::2], transfer[1::2, ::2]):
                odd *= -1.0
        # the free rotation at t carries its own parity
        diagonal = np.arange(n)
        modes[diagonal, :, diagonal, :] += _free_rotation(bath.masses, mode_w, t)

    if t < 0.0:
        a, b, c = _flip_time(a), _flip_time(b), _flip_time(c)

    return BathPropagators(
        time=float(t),
        mode="exact",
        small_angle=False,
        system=system,
        bath=bath,
        a=a,
        b=b,
        c=c,
        transfer=transfer,
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
    ``omega^2``, the regime bound for dropping the higher orders. A NaN or
    infinite ``t`` raises ``ValueError``.
    """
    _require_finite_scalar("t", t)
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
        transfer=None,
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


def _spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, from the top eigenvalue of the smaller Gram matrix.

    The dense Gram product is formed once; its top eigenvalue comes from
    Lanczos iteration (ARPACK to machine precision, within its default bound
    of ``10 n`` iterations) rather than a full tridiagonalisation. The start
    vector is a fixed pseudo-random one, so repeated calls agree bit for bit
    and no symmetry of a residual makes it orthogonal to the top
    eigenvector. A zero Gram matrix, which Lanczos cannot start from, has
    norm zero.

    Raises
    ------
    NumericalFailureError
        If the Lanczos iteration does not converge.
    """
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    if not gram.any():
        return 0.0
    # imported here so that importing bohmdec skips its load: about 3.6 MB
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh

    v0 = np.random.default_rng(0).standard_normal(gram.shape[0])
    try:
        (top,) = eigsh(gram, k=1, which="LA", tol=0.0, v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NumericalFailureError(f"Lanczos top eigenvalue did not converge: {exc}") from exc
    return float(np.sqrt(max(top, 0.0)))


def reversibility_residuals(
    forward: BathPropagators, backward: BathPropagators
) -> dict[str, float]:
    """Residual norms of the forward/backward closure identities.

    ``forward`` and ``backward`` must be exact-mode blocks (with the dense
    transfer matrix assembled) at ``t`` and ``-t``. The first four keys are the
    blocks of the round trip ``R = T(t) T(-t) - 1``; the rest probe the
    block-inverse construction of the mode sector,

        Dinv(t) = D(-t) - C(-t) A(-t)^-1 B(-t)

    its transfer to the cross block, and the Schur-complement form of the
    inverse central block. Because ``R_mc = C(t) A(-t) + D(t) C(-t)``, the
    block-inverse residual is a rank-2 update of the mode block of ``R``,

        D(t) Dinv(t) - 1 = R_mm - R_mc A(-t)^-1 B(-t)

    and the cross transfer ``B(-t) Dinv(-t)``, with
    ``Dinv(-t) = D(t) - C(t) A(t)^-1 B(t)``, is taken as
    ``B(-t) D(t) - (B(-t) C(t)) A(t)^-1 B(t)``, so no inverse mode block is
    formed. The cubic products are ``T(t) T(-t)`` and the Gram matrices of
    the two mode-sized residuals. All values are spectral norms of the
    residual matrices, each the square root of the top eigenvalue of its
    smaller Gram matrix, found by Lanczos iteration.

    The inputs are read, never written; their central blocks are views.
    Beside them, at most two ``(2N + 2)``-square matrices are held at once:
    ``R`` is written into one new array ``_PANEL_ROWS`` rows at a time, and
    the block-inverse residual overwrites ``R_mm`` once that block has its
    norm, so one Gram matrix lives beside ``R`` at a time.

    Raises
    ------
    NumericalFailureError
        If a Lanczos iteration does not converge.
    """
    if forward.mode != "exact" or backward.mode != "exact":
        raise ValueError("reversibility checks need exact-mode blocks")
    if forward.transfer is None or backward.transfer is None:
        raise ValueError("reversibility checks need the dense transfer matrices")
    if abs(forward.time + backward.time) > 1e-12 * max(1.0, abs(forward.time)):
        raise ValueError("backward blocks must be evaluated at minus the forward time")
    t_f, t_b = forward.transfer, backward.transfer
    a_f, b_f, c_f = t_f[:2, :2], t_f[:2, 2:], t_f[2:, :2]
    a_b, b_b, c_b = t_b[:2, :2], t_b[:2, 2:], t_b[2:, :2]
    a_f_inv = np.linalg.inv(a_f)
    cross = b_b @ t_f[2:, 2:] - (b_b @ c_f) @ a_f_inv @ b_f
    round_trip = np.empty_like(t_f)
    for start in range(0, round_trip.shape[0], _PANEL_ROWS):
        # rows of T(t) T(-t) need only the same rows of T(t)
        panel = slice(start, start + _PANEL_ROWS)
        np.matmul(t_f[panel], t_b, out=round_trip[panel])
    round_trip[np.diag_indices_from(round_trip)] -= 1.0

    modes = round_trip[2:, 2:]
    norms = {
        "round_trip_center": _spectral_norm(round_trip[:2, :2]),
        "round_trip_modes": _spectral_norm(modes),
        "round_trip_center_modes": _spectral_norm(round_trip[:2, 2:]),
        "round_trip_modes_center": _spectral_norm(round_trip[2:, :2]),
    }
    # R_mm - R_mc A(-t)^-1 B(-t), over R_mm
    update = np.linalg.solve(a_b, b_b)
    for start in range(0, modes.shape[0], _PANEL_ROWS):
        panel = slice(start, start + _PANEL_ROWS)
        modes[panel] -= round_trip[2:, :2][panel] @ update
    norms["block_inverse"] = _spectral_norm(modes)
    norms["inverse_cross_transfer"] = _spectral_norm(cross + a_f_inv @ b_f)
    norms["inverse_schur_center"] = _spectral_norm(a_b - cross @ c_b - a_f_inv)
    return norms
