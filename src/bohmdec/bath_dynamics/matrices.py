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
back to ``(q, p)`` by the root masses. One evaluator forms the rows of
any run of sites: the central rows of ``T(t)`` inline, or all of it in one
span of sites per CPU in the process's affinity mask, and the round trip
``T(t) T(-t)`` is one product per span of its rows; both go through
:func:`bohmdec._parallel.run_blocks` with one block per span, as the
bicubic pullback does. A span's products round differently from the whole one, so
``T`` and the round trip move with the worker count by round-off.
The flow is exact at every time, and ``T(-t) = P T(t) P`` with
``P = diag(1, -1, 1, -1, ...)`` holds bit for bit at any worker count
because ``C`` is even and ``S`` odd in ``t``, so the round trip
``T(t) T(-t) - 1`` shows the round-off of the construction. The
weak-coupling blocks are closed forms to second order in the couplings.

Only ``A``, ``B`` and, when asked for, ``T`` are stored: the center-to-mode
blocks are read off ``T`` or, as the flow blocks ``C``, ``S`` and ``V S`` are
symmetric, each ``C_r`` is ``B_r`` reflected about its anti-diagonal; the
weak-coupling closed forms obey the same reflection entry by entry.

The coupling convention is ``H = H_S + sum_r H_r + x sum_r kappa_r q_r``:
the center's momentum is driven by ``-sum_r kappa_r q_r`` and mode ``r``'s by
``-kappa_r x``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .._guards import finite_array, require_close, require_finite
from .._parallel import run_blocks
from ..errors import CouplingStrengthWarning, NumericalFailureError
from ..phase_space import OscillatorSystemSpec
from ..quadratic_master.propagator import _COND_LIMIT
from ._trig import one_minus_cos, pair_kernel, t_minus_sin
from .spectral import BathSpec, _require_same_modes
from .volterra import GKernelTable, NormalModeBasis

__all__ = [
    "BathPropagators",
    "exact_bath_matrices",
    "reduced_M_from_bath",
    "reversibility_residuals",
    "weak_coupling_matrices",
]

# _spectral_norm's first stop test, ARPACK's tol=0 (unit roundoff), Kahan's twice-is-enough bound
_KRYLOV, _ROUNDOFF, _KAHAN = 21, np.finfo(float).eps / 2, 0.5**0.5


def _rotation(stiffness, angle) -> np.ndarray:
    """Free rotations ``[[cos, sin / k], [-k sin, cos]]``, shape ``angle.shape + (2, 2)``."""
    cos, sin = np.cos(angle), np.sin(angle)
    rotation = np.stack([cos, sin / stiffness, -stiffness * sin, cos], axis=-1)
    return rotation.reshape(np.shape(angle) + (2, 2))


@dataclass(frozen=True)
class BathPropagators:
    """Transfer blocks of the linear flow at one time.

    Attributes
    ----------
    time : float
    kind : str
        How the blocks were formed: ``"exact"`` (from the normal modes of the
        coupled network), ``"weak_coupling"`` (closed forms, second order in
        the couplings) or ``"small_angle"`` (the weak-coupling forms further
        expanded for ``omega t << 1``, with the identity as central block).
    system : OscillatorSystemSpec
    bath : BathSpec
    a : numpy.ndarray
        Central 2x2 block.
    b, c : numpy.ndarray
        Mode-to-center and center-to-mode blocks, shape ``(N, 2, 2)``; ``c``
        is derived from ``transfer`` or ``b`` (see the module notes).
    transfer : numpy.ndarray or None
        Dense ``(2N + 2)``-square transfer matrix ``T(t)`` on
        ``(x, p, q_1, p_1, ...)``; always ``None`` unless exact, and for
        exact blocks ``None`` unless requested (``ValueError`` otherwise). Its
        mode sector is the mode-to-mode block ``D``, which tends to
        ``d_free`` as the couplings vanish.

    A NaN or inf in ``time``, ``a``, ``b`` or ``transfer`` raises ``ValueError``.
    """

    time: float
    kind: str
    system: OscillatorSystemSpec
    bath: BathSpec
    a: np.ndarray
    b: np.ndarray
    transfer: np.ndarray | None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "weak_coupling", "small_angle"):
            raise ValueError(f"kind must be exact, weak_coupling or small_angle, got {self.kind!r}")
        if self.transfer is not None and self.kind != "exact":
            raise ValueError("only exact blocks carry the dense transfer matrix")
        n = self.bath.n_modes
        if self.a.shape != (2, 2):
            raise ValueError("central block must be 2x2")
        if self.b.shape != (n, 2, 2):
            raise ValueError(f"b must have shape ({n}, 2, 2)")
        if self.transfer is not None and self.transfer.shape != (2 * n + 2, 2 * n + 2):
            raise ValueError(f"transfer must have shape ({2 * n + 2}, {2 * n + 2})")
        require_finite("time", self.time)
        finite_array("a", self.a)
        finite_array("b", self.b)
        if self.transfer is not None:
            finite_array("transfer", self.transfer)  # no float copy: a mask of one byte per entry

    @property
    def n_modes(self) -> int:
        return self.bath.n_modes

    @property
    def c(self) -> np.ndarray:
        """Center-to-mode blocks: a view of ``transfer[2:, :2]`` when that is
        held, else of ``b`` with each block reflected about its anti-diagonal."""
        if self.transfer is not None:
            return self.transfer[2:, :2].reshape(self.n_modes, 2, 2)
        return self.b[:, ::-1, ::-1].transpose(0, 2, 1)

    @property
    def d_free(self) -> np.ndarray:
        """Diagonal free-rotation part of the mode-to-mode blocks, ``(N, 2, 2)``."""
        bath = self.bath
        return _rotation(bath.masses * bath.frequencies, bath.frequencies * self.time)


def _flow_rows(basis: NormalModeBasis, t: float, sites: slice, out: np.ndarray) -> None:
    """Write the rows of ``T(t)`` for the pairs ``sites`` of ``(x, p, q_1, p_1, ...)``
    into ``out``, of shape ``(2 len(sites), 2N + 2)``.

    Each flow block's rows come from one product ``U[sites] f(W) U^T``, so
    ``slice(0, 1)`` gives the central rows in ``O(N^2)`` and ``slice(None)``
    the whole ``T`` from three ``(N + 1)``-cubed products. Each block is
    written into its strided view of ``out`` in place, so beside it only one
    work array and one flow block of the sites' rows live at a time. ``V S``
    is taken as ``U (W sin Wt) U^T`` rather than through the arrowhead of
    ``V``: ``V`` and ``U W^2 U^T`` differ by the round-off of the eigensolve,
    which ``S`` magnifies into the round trip.
    """
    u, w, roots = basis.vectors, basis.frequencies, basis.root_masses
    phase = w * t
    sin = np.sin(phase)
    rows, row_roots = u[sites], roots[sites, None]
    count, size = rows.shape
    qq, qp = out[0::2, 0::2], out[0::2, 1::2]
    pq, pp = out[1::2, 0::2], out[1::2, 1::2]
    # C, scaled to q_i <- q_j by r_j / r_i and to p_i <- p_j by r_i / r_j
    work = rows * one_minus_cos(phase)
    flow = work @ u.T
    np.negative(flow, out=flow)
    flow[np.arange(count), np.arange(size)[sites]] += 1.0
    np.multiply(flow, roots, out=qq)
    qq /= row_roots
    np.multiply(flow, row_roots, out=pp)
    pp /= roots
    # S, scaled to q_i <- p_j by 1 / (r_i r_j)
    np.multiply(rows, sin / w, out=work)
    np.matmul(work, u.T, out=flow)
    np.divide(flow, roots, out=qp)
    qp /= row_roots
    # -V S, scaled to p_i <- q_j by r_i r_j
    np.multiply(rows, w * sin, out=work)
    np.matmul(work, u.T, out=flow)
    np.multiply(flow, roots, out=pq)
    pq *= -row_roots


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
    Without the dense matrix only the central rows of ``T(t)`` are formed,
    ``O(N^2)`` per time.

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
        ``8 (2N + 2)^2`` bytes and three ``(N + 1)``-cubed products, one
        span of rows per CPU in the affinity mask (the first on the calling
        thread). Building it holds one and a half transfer matrices at its
        peak at any worker count, as each worker's work array and flow
        block cover only its rows.

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
    require_finite("t", t)
    basis = g_table.basis
    if basis is None:
        raise ValueError("an ohmic table has no normal modes; exact blocks need a line spectrum")
    _require_same_modes(bath, basis.bath, "g_table was solved for")
    require_close("g_table was solved for a different bare frequency than the system's",
                  g_table.bare_frequency, system.bare_frequency)
    require_close("g_table was solved for a different central mass", g_table.mass, system.mass)

    # one span of site pairs per worker; the central pair alone runs inline
    sites = bath.n_modes + 1 if include_d_corrections else 1
    rows = np.empty((2 * sites, 2 * bath.n_modes + 2))
    run_blocks(
        lambda worker, span: _flow_rows(basis, t, span, rows[2 * span.start : 2 * span.stop]),
        0, sites, sites,
    )
    return BathPropagators(
        time=float(t),
        kind="exact",
        system=system,
        bath=bath,
        a=rows[:2, :2].copy(),
        b=rows[:2, 2:].reshape(2, bath.n_modes, 2).transpose(1, 0, 2).copy(),
        transfer=rows if include_d_corrections else None,
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
    require_finite("t", t)
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
        a = _rotation(m * w, w * t)
        h, h_dot, h_ddot = (-kernel for kernel in pair_kernel(mode_w, w, t))

    # B from the per-mode response integrals h and their time derivatives
    scale = kappa / (m * mode_m * w * mode_w)
    b = np.empty((bath.n_modes, 2, 2))
    b[:, 0, 0] = scale * mode_m * h_dot
    b[:, 0, 1] = scale * h
    b[:, 1, 0] = scale * m * mode_m * h_ddot
    b[:, 1, 1] = scale * m * h_dot

    return BathPropagators(
        time=float(t),
        kind="small_angle" if small_angle else "weak_coupling",
        system=system,
        bath=bath,
        a=a,
        b=b,
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
        If the propagators are not exact, or ``bath`` has other modes
        than the blocks' bath (only its temperature may differ).
    NumericalFailureError
        If the central block's condition number exceeds 1e12, the limit of
        :func:`~bohmdec.quadratic_master.integrate_propagator`'s flow matrix.
    """
    if props.kind != "exact":
        raise ValueError("the reduced smearing matrix requires exact-mode blocks")
    _require_same_modes(bath, props.bath, "the blocks were built for")
    if np.linalg.cond(props.a) > _COND_LIMIT:
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
    top eigenvalue of ``R^T R``, read by Lanczos iteration on
    ``v -> R^T (R v)``, two products with ``R``, so no Gram matrix is formed;
    each new vector is orthogonalized twice against the basis. The top Ritz
    value ``theta`` is taken by ARPACK's rule for ``tol=0``, once its error
    estimate is at most ``eps max(eps^(2/3), theta)``, tested from step 21 on
    (where ARPACK's default 20-vector basis first tests it), or once the basis
    spans the space, as a side of 2 (three of the four round-trip blocks) is
    after two steps, or an invariant subspace (the second orthogonalization
    removes over ``1 - 1/sqrt(2)`` of the vector, as in ARPACK's ``dsaitr``).
    It is within 1e-13 relative for a separated top singular value, and for a
    cluster (round-off residuals, ``sigma_2 / sigma_1 = 0.9994``) about 1e-4
    short. The fixed pseudo-random start vector makes repeated calls agree bit
    for bit, and no symmetry of a residual makes it orthogonal to the top one.
    """
    tall = mat.T if mat.shape[0] < mat.shape[1] else mat
    size = tall.shape[1]
    q = np.random.default_rng(0).standard_normal(size)
    basis, alpha, beta = np.empty((0, size)), [], []
    while True:
        basis = np.vstack([basis, q / np.linalg.norm(q)])
        q = tall.T @ (tall @ basis[-1])
        alpha.append(basis[-1] @ q)
        q -= basis.T @ (basis @ q)
        first = np.linalg.norm(q)
        q -= basis.T @ (basis @ q)
        beta.append(np.linalg.norm(q))
        spanned = len(alpha) == size or beta[-1] <= _KAHAN * first
        if spanned or len(alpha) >= _KRYLOV:
            theta, vectors = np.linalg.eigh(np.diag(alpha) + np.diag(beta[:-1], -1))
            estimate = beta[-1] * abs(vectors[-1, -1])
            if spanned or estimate <= _ROUNDOFF * max(_ROUNDOFF ** (2 / 3), theta[-1]):
                return float(np.sqrt(max(theta[-1], 0.0)))


def reversibility_residuals(
    forward: BathPropagators, backward: BathPropagators
) -> dict[str, float]:
    """Spectral norms of the four blocks of the round trip ``R = T(t) T(-t) - 1``.

    ``forward`` and ``backward`` must be exact blocks (with the dense
    transfer matrix assembled) at ``t`` and ``-t``. As ``T(-t) = P T(t) P``
    bit for bit, ``T(-t) T(t) - 1 = P R P`` adds nothing, and other
    identities of the blocks are algebraic functions of ``R``. The inputs
    are read, never written; ``R``, formed by one product per span of its
    rows through :func:`bohmdec._parallel.run_blocks`, each written into its
    rows in place, is the only large array held, and :func:`_spectral_norm`
    takes products with it rather than a Gram matrix.
    """
    # only exact blocks carry a transfer matrix (BathPropagators checks it)
    if forward.transfer is None or backward.transfer is None:
        raise ValueError("reversibility checks need exact blocks with the dense transfer matrices")
    require_close("backward blocks must be evaluated at minus the forward time",
                  -backward.time, forward.time)
    round_trip = np.empty_like(forward.transfer)
    run_blocks(
        lambda worker, span: np.matmul(
            forward.transfer[span], backward.transfer, out=round_trip[span]
        ),
        0, len(round_trip), len(round_trip),
    )
    round_trip[np.diag_indices_from(round_trip)] -= 1.0
    return {
        "round_trip_center": _spectral_norm(round_trip[:2, :2]),
        "round_trip_modes": _spectral_norm(round_trip[2:, 2:]),
        "round_trip_center_modes": _spectral_norm(round_trip[:2, 2:]),
        "round_trip_modes_center": _spectral_norm(round_trip[2:, :2]),
    }
