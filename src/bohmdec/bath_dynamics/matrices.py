"""Phase-space transfer blocks of the coupled oscillator network.

Because the total Hamiltonian is quadratic, phase-space points evolve
linearly: the central pair picks up ``A(t)`` from itself and ``B_r(t)`` from
each mode, while mode ``r`` picks up ``C_r(t)`` from the center and
``D_rs(t)`` from mode ``s``. On ``z = (x, p, q_1, p_1, ...)`` the blocks
tile the transfer matrix ``T(t) = exp(L t)`` of that linear flow, which
exact blocks hold whole when asked for (:attr:`BathPropagators.transfer`).

The exact blocks come from the normal modes that
:func:`~bohmdec.bath_dynamics.volterra.solve_g_kernel` stores for a line
spectrum, ``V = U W^2 U^T`` with ``V`` the mass-weighted Hessian. In the
coordinates ``y = sqrt(m) q`` and ``v = p / sqrt(m)`` the flow has the blocks

    C = 1 - U (1 - cos Wt) U^T     S = U (sin Wt / W) U^T

with ``y(t) = C y + S v`` and ``v(t) = -V S y + C v``; each block is mapped
back to ``(q, p)`` by the root masses. The flow is exact at every time, and
``T(-t) = P T(t) P`` with ``P = diag(1, -1, 1, -1, ...)`` holds bit for bit
because ``C`` is even and ``S`` odd in ``t``. The weak-coupling blocks are
closed forms to second order in the couplings.

The coupling convention is ``H = H_S + sum_r H_r + x sum_r kappa_r q_r``:
the center's momentum is driven by ``-sum_r kappa_r q_r`` and mode ``r``'s by
``-kappa_r x``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import CouplingStrengthWarning, NumericalFailureError
from ..phase_space import OscillatorSystemSpec
from ._trig import one_minus_cos, pair_kernel, t_minus_sin
from .spectral import BathSpec, _require_finite_scalar
from .volterra import GKernelTable, NormalModeBasis

__all__ = [
    "BathPropagators",
    "exact_bath_matrices",
    "reduced_M_from_bath",
    "reversibility_residuals",
    "weak_coupling_matrices",
]

# Rows of the round trip and of its block-inverse update formed per matrix
# product. At N = 512 a 128-row panel keeps the update's temporary at an
# eighth of a transfer matrix and runs the product within about 10% of one
# whole-matrix product; 16-row panels take about twice its time (one BLAS
# thread, 2-vCPU Xeon).
_PANEL_ROWS = 128


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
        ``"exact"`` (from the normal modes of the coupled network) or
        ``"weak_coupling"`` (closed forms, second order in the couplings).
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
        sector is the mode-to-mode block ``D``, which tends to ``d_free`` as
        the couplings vanish.
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


def _central_rows(basis: NormalModeBasis, t: float) -> np.ndarray:
    """Rows ``x`` and ``p`` of ``T(t)``, from the central column of each flow block."""
    u, w, roots = basis.vectors, basis.frequencies, basis.root_masses
    phase = w * t
    sin = np.sin(phase)
    head = u[0]
    cos_col = -(u @ (one_minus_cos(phase) * head))
    cos_col[0] += 1.0
    sin_col = u @ (sin / w * head)
    # V S = U (W sin Wt) U^T
    stiff_col = u @ (w * sin * head)
    r0 = roots[0]
    rows = np.empty((2, 2 * roots.size))
    rows[0, 0::2] = cos_col * roots / r0
    rows[0, 1::2] = sin_col / roots / r0
    rows[1, 0::2] = -r0 * stiff_col * roots
    rows[1, 1::2] = r0 * cos_col / roots
    return rows


def _dense_transfer(basis: NormalModeBasis, t: float) -> np.ndarray:
    """The whole ``T(t)``, from three ``(N + 1)``-cubed products.

    Each flow block is written into its strided view of ``T`` in place, so
    beside ``T`` only one work array and one flow block live at a time.
    ``V S`` is taken as ``U (W sin Wt) U^T`` rather than through the
    arrowhead of ``V``: ``V`` and ``U W^2 U^T`` differ by the round-off of
    the eigensolve, which ``S`` magnifies into the round trip.
    """
    u, w, roots = basis.vectors, basis.frequencies, basis.root_masses
    phase = w * t
    sin = np.sin(phase)
    size = roots.size
    transfer = np.empty((2 * size, 2 * size))
    qq, qp = transfer[0::2, 0::2], transfer[0::2, 1::2]
    pq, pp = transfer[1::2, 0::2], transfer[1::2, 1::2]
    # C, scaled to q_i <- q_j by r_j / r_i and to p_i <- p_j by r_i / r_j
    work = u * one_minus_cos(phase)
    flow = work @ u.T
    np.negative(flow, out=flow)
    flow[np.diag_indices(size)] += 1.0
    np.multiply(flow, roots, out=qq)
    qq /= roots[:, None]
    np.multiply(flow, roots[:, None], out=pp)
    pp /= roots
    # S, scaled to q_i <- p_j by 1 / (r_i r_j)
    np.multiply(u, sin / w, out=work)
    np.matmul(work, u.T, out=flow)
    np.divide(flow, roots, out=qp)
    qp /= roots[:, None]
    # -V S, scaled to p_i <- q_j by r_i r_j
    np.multiply(u, w * sin, out=work)
    np.matmul(work, u.T, out=flow)
    np.multiply(flow, roots, out=pq)
    pq *= -roots[:, None]
    return transfer


def exact_bath_matrices(
    bath: BathSpec,
    system: OscillatorSystemSpec,
    g_table: GKernelTable,
    t: float,
    include_d_corrections: bool = False,
) -> BathPropagators:
    """Assemble the exact transfer blocks at time ``t`` from the normal modes.

    The blocks are finite trigonometric sums over the normal-mode basis that
    ``g_table`` holds, exact to round-off at any finite ``t``, positive or
    negative; ``t`` need not lie on the table's grid nor within its span.
    Without the dense matrix only the central column of each flow block is
    formed, ``O(N^2)`` per time.

    Parameters
    ----------
    bath : BathSpec
        Must have the masses, frequencies and couplings the table was solved
        for.
    system : OscillatorSystemSpec
        Its bare frequency and mass must match the ones the table was solved
        with.
    g_table : GKernelTable
        From :func:`~bohmdec.bath_dynamics.volterra.solve_g_kernel` on the
        bath's line spectrum.
    t : float
    include_d_corrections : bool, optional
        Assemble the dense transfer matrix ``T(t)`` (``transfer``), which
        :func:`reversibility_residuals` needs. Off by default: it takes
        ``8 (2N + 2)^2`` bytes and three ``(N + 1)``-cubed products, and
        building it holds one and a half transfer matrices at its peak.

    Returns
    -------
    BathPropagators

    Raises
    ------
    ValueError
        If ``t`` is NaN or inf, the table has no normal-mode basis (an
        ohmic table), or the bath, bare frequency or mass differ from the
        table's.
    """
    _require_finite_scalar("t", t)
    basis = g_table.basis
    if basis is None:
        raise ValueError("an ohmic table has no normal modes; exact blocks need a line spectrum")
    if not all(
        np.array_equal(getattr(bath, name), getattr(basis.bath, name))
        for name in ("masses", "frequencies", "couplings")
    ):
        raise ValueError("bath differs from the one g_table was solved for")
    if abs(g_table.bare_frequency - system.bare_frequency) > 1e-12 * system.bare_frequency:
        raise ValueError(
            "g_table was solved for a different bare frequency than the system's"
        )
    if abs(g_table.mass - system.mass) > 1e-12 * system.mass:
        raise ValueError("g_table was solved for a different central mass")

    n = bath.n_modes
    transfer = _dense_transfer(basis, t) if include_d_corrections else None
    rows = _central_rows(basis, t) if transfer is None else transfer[:2]
    b = rows[:, 2:].reshape(2, n, 2).transpose(1, 0, 2)
    if transfer is None:
        # C, S and V S are symmetric, so T_qq and T_pp are transposes of each
        # other and T_qp, T_pq symmetric: each C_r is B_r reflected about
        # its anti-diagonal
        c = b[:, ::-1, ::-1].transpose(0, 2, 1)
    else:
        c = transfer[2:, :2].reshape(n, 2, 2)

    return BathPropagators(
        time=float(t),
        mode="exact",
        small_angle=False,
        system=system,
        bath=bath,
        a=rows[:, :2].copy(),
        b=b.copy(),
        c=c.copy(),
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
    """Largest singular value of ``mat``.

    Taken on the smaller side: with ``R`` the matrix or its transpose,
    whichever has no more columns than rows, it is the square root of the
    top eigenvalue of ``R^T R``. A side of at most 2 reads that eigenvalue
    off the small Gram matrix. Otherwise Lanczos iteration (ARPACK, within
    its default bound of ``10 n`` iterations) applies ``v -> R^T (R v)``, two
    products with ``R``, so no Gram matrix is formed. The result is within
    1e-13 relative when the top singular value is separated from the rest;
    for a cluster (round-off residuals, ``sigma_2 / sigma_1 = 0.9994``) it
    can fall about 1e-4 short. The start vector is a fixed pseudo-random one,
    so repeated calls agree bit for bit and no symmetry of a residual makes
    it orthogonal to the top eigenvector. A zero matrix, which Lanczos
    cannot start from, has norm zero.

    Raises
    ------
    NumericalFailureError
        If the Lanczos iteration does not converge.
    """
    if not mat.any():
        return 0.0
    tall = mat.T if mat.shape[0] < mat.shape[1] else mat
    size = tall.shape[1]
    if size <= 2:
        top = np.linalg.eigvalsh(tall.T @ tall)[-1]
        return float(np.sqrt(max(top, 0.0)))
    # imported here so that importing bohmdec skips its load: about 3.6 MB
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    gram = LinearOperator((size, size), matvec=lambda v: tall.T @ (tall @ v), dtype=float)
    v0 = np.random.default_rng(0).standard_normal(size)
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
    formed. The one cubic product is ``T(t) T(-t)``. All values are spectral
    norms of the residual matrices (:func:`_spectral_norm`); the two
    mode-sized ones come from Lanczos iteration on products with the
    residual itself.

    The inputs are read, never written; their central blocks are views.
    Beside them, one ``(2N + 2)``-square matrix is held, ``R``, and no Gram
    matrix: ``R`` is written into one new array ``_PANEL_ROWS`` rows at a
    time, and the block-inverse residual overwrites ``R_mm`` in panels once
    that block has its norm.

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
