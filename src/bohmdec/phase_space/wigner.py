"""Phase-space grids, Wigner fields, and the wavefunction-to-Wigner map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import _parallel
from .._guards import finite_array, require_positive
from ..errors import GridCoverageError
from .system import ClassicalOrbit, OscillatorSystemSpec

__all__ = [
    "GridSpec",
    "WignerField",
    "wigner_transform",
    "exact_oscillator_wigner",
    "density_matrix_from_wigner",
]

# Relative amplitude below which the state is treated as absent, and the
# largest norm fraction the position axis may miss.
_ENVELOPE_CUTOFF = 1e-12
_COVERAGE_TOL = 1e-8
# Halvings of the momentum probe's step allowed before an aliased reach is
# reported as an error: the finest step is the support probe's over 2^10,
# and the largest reach it can measure is 2^10 pi hbar over that probe step.
_REACH_HALVINGS = 10
# Highest level exact_oscillator_wigner evaluates: up to it the z > 1400 clamp
# drops below 1.4e-13 of the peak, and at 350 it drops 0.043.
_MAX_EXACT_LEVEL = 300


def _trapezoid(values: np.ndarray, step: float, axis: int = -1) -> np.ndarray:
    """Trapezoid rule along one axis of an equally spaced table."""
    values = np.asarray(values)
    total = values.sum(axis=axis)
    edges = np.take(values, [0, -1], axis=axis).sum(axis=axis)
    return (total - 0.5 * edges) * step


def _symmetric_axis(extent: float, max_step: float) -> np.ndarray:
    """Symmetric grid containing zero with spacing at most ``max_step``."""
    n_half = max(1, int(np.ceil(extent / max_step)))
    step = extent / n_half
    return step * np.arange(-n_half, n_half + 1)


def _uniform_axis(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` as a 1-D float axis, rejected unless uniformly spaced and increasing.

    Every step may differ from the end-point step by at most
    ``4 eps max|axis|``. Building an axis as ``start + i * step`` (``arange``
    or ``linspace``) rounds each point by at most ``1.5 eps max|axis|``, so
    on a long axis that rounding, not a fixed share of the step, sets how
    far the steps scatter.
    """
    axis = np.asarray(values, dtype=float)
    if axis.ndim != 1 or axis.size < 2:
        raise ValueError(f"{name} must be a 1-D grid")
    slack = np.abs(np.diff(axis) - _step(axis))
    if not np.all(slack <= 4.0 * np.finfo(float).eps * np.max(np.abs(axis))):
        raise ValueError(f"{name} must be uniformly spaced")
    if not _step(axis) > 0.0:
        raise ValueError(f"{name} must be increasing")
    return axis


def _step(axis: np.ndarray) -> float:
    """Step of a uniform axis, from its end points."""
    return float((axis[-1] - axis[0]) / (axis.size - 1))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular phase-space grid with uniform, symmetric axes."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "p"):
            axis = _uniform_axis(f"GridSpec.{name}", getattr(self, name))
            object.__setattr__(self, name, axis)

    @property
    def dx(self) -> float:
        return _step(self.x)

    @property
    def dp(self) -> float:
        return _step(self.p)

    @classmethod
    def for_orbit(
        cls,
        orbit: ClassicalOrbit,
        x_span: float = 1.5,
        p_span: float = 3.0,
        x_step: float | None = None,
        p_step: float | None = None,
    ) -> "GridSpec":
        """Default grid for a band state's orbit.

        Position covers ``x_span * x_max`` each side with spacing at most a
        quarter de Broglie length; momentum covers ``p_span * m omega x_max``
        with spacing at most ``hbar / (4 x_max)``.

        Raises
        ------
        ValueError
            If a span or a given step is NaN, infinite or not positive.
        """
        sys_ = orbit.system
        p_scale = sys_.mass * sys_.renormalized_frequency * orbit.amplitude
        if x_step is None:
            x_step = orbit.de_broglie / 4.0
        if p_step is None:
            p_step = sys_.hbar / (4.0 * orbit.amplitude)
        for name, value in (
            ("x_span", x_span), ("p_span", p_span), ("x_step", x_step), ("p_step", p_step)
        ):
            require_positive(name, value)
        return cls(
            x=_symmetric_axis(x_span * orbit.amplitude, x_step),
            p=_symmetric_axis(p_span * p_scale, p_step),
        )


@dataclass
class WignerField:
    """Wigner function samples on a :class:`GridSpec`-style grid.

    Attributes
    ----------
    x_grid, p_grid : numpy.ndarray
        Uniform axes, checked as :class:`GridSpec` checks its own.
    values : numpy.ndarray
        Real samples, shape ``(len(x_grid), len(p_grid))``.
    time_stamp : float
        Evolution time the samples correspond to.
    notes : tuple of str
        Diagnostic flags accumulated by producers (fallback paths,
        normalization residues).
    """

    x_grid: np.ndarray
    p_grid: np.ndarray
    values: np.ndarray
    time_stamp: float = 0.0
    notes: tuple = ()

    def __post_init__(self) -> None:
        self.x_grid = _uniform_axis("WignerField.x_grid", self.x_grid)
        self.p_grid = _uniform_axis("WignerField.p_grid", self.p_grid)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.x_grid.size, self.p_grid.size):
            raise ValueError(
                "WignerField.values must have shape (len(x_grid), len(p_grid))"
            )

    @property
    def dx(self) -> float:
        return _step(self.x_grid)

    @property
    def dp(self) -> float:
        return _step(self.p_grid)

    def normalization(self) -> float:
        """Phase-space integral of the field."""
        return float(_trapezoid(_trapezoid(self.values, self.dp, axis=1), self.dx))

    def marginal_position(self) -> np.ndarray:
        """Momentum-integrated density on ``x_grid``."""
        return _trapezoid(self.values, self.dp, axis=1)

    def marginal_momentum(self) -> np.ndarray:
        """Position-integrated density on ``p_grid``."""
        return _trapezoid(self.values, self.dx, axis=0)

    def mean_and_covariance(self) -> tuple[np.ndarray, np.ndarray]:
        """First and second central moments ``(mean, covariance)``."""
        norm = self.normalization()
        mx = self.marginal_position()
        mp = self.marginal_momentum()
        mean_x = float(_trapezoid(self.x_grid * mx, self.dx)) / norm
        mean_p = float(_trapezoid(self.p_grid * mp, self.dp)) / norm
        dxv = self.x_grid - mean_x
        dpv = self.p_grid - mean_p
        cxx = float(_trapezoid(dxv**2 * mx, self.dx)) / norm
        cpp = float(_trapezoid(dpv**2 * mp, self.dp)) / norm
        inner = _trapezoid(self.values * dpv[None, :], self.dp, axis=1)
        cxp = float(_trapezoid(dxv * inner, self.dx)) / norm
        return np.array([mean_x, mean_p]), np.array([[cxx, cxp], [cxp, cpp]])


def _sample(
    sampler: Callable[[np.ndarray], np.ndarray], points: np.ndarray
) -> np.ndarray:
    """Evaluate ``sampler`` at ``points``, rejecting NaN or inf amplitudes."""
    values = np.asarray(sampler(points))
    if not np.all(np.isfinite(values)):
        raise ValueError("wavefunction sampler returned NaN or inf")
    return values


def _support_interval(
    sampler: Callable[[np.ndarray], np.ndarray],
    probe_lo: float,
    probe_hi: float,
    probe_step: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Locate where ``|psi|`` exceeds ``_ENVELOPE_CUTOFF`` times its peak.

    The probe window is widened until the envelope is below threshold at both
    ends. Returns the probe points from the first to the last above the
    threshold, ``lo`` to ``hi``, and the samples there.
    """
    lo, hi = probe_lo, probe_hi
    for _ in range(12):
        grid = np.arange(lo, hi + probe_step, probe_step)
        samples = _sample(sampler, grid)
        env = np.abs(samples)
        if not env.any():
            raise ValueError(f"wavefunction sampler returned zero everywhere on [{lo:g}, {hi:g}]")
        mask = env > _ENVELOPE_CUTOFF * env.max()
        if mask[0] or mask[-1]:
            width = hi - lo
            lo -= 0.5 * width
            hi += 0.5 * width
            continue
        idx = np.nonzero(mask)[0]
        support = slice(idx[0], idx[-1] + 1)
        return grid[support], samples[support]
    raise GridCoverageError("could not bracket the wavefunction support")


def _momentum_band(samples: np.ndarray, step: float, hbar: float) -> tuple[np.ndarray, float]:
    """Least and largest ``p`` where the FFT of ``samples`` exceeds
    ``_ENVELOPE_CUTOFF`` of its peak, and the spacing of its momentum modes."""
    # imported here so that importing bohmdec skips its load: about 27 MB and 0.25 s
    from scipy import fft as sp_fft

    spectrum = np.abs(sp_fft.fft(samples))
    p_modes = (2.0 * np.pi * hbar) * sp_fft.fftfreq(samples.size, step)
    present = p_modes[spectrum > _ENVELOPE_CUTOFF * spectrum.max()]
    return np.array([present.min(), present.max()]), 2.0 * np.pi * hbar / (samples.size * step)


def wigner_transform(
    wavefunction_sampler: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    system: OscillatorSystemSpec,
) -> WignerField:
    """Wigner function of a pure state on a phase-space grid.

    Evaluates ``W(x, p) = (1/pi hbar) Re integral dy
    psi*(x + y) psi(x - y) exp(2 i p y / hbar)`` by a symmetric trapezoid sum
    in ``y`` with step ``h = dx / k``. Every point ``x_i +- y_j`` then lies
    on one lattice of step ``h`` centred on the grid, so the wavefunction is
    sampled once on that lattice and the correlation table
    ``psi*(x_i + y_j) psi(x_i - y_j)`` is read from strided windows of it,
    one block of rows at a time.

    By Poisson summation the trapezoid sum with step ``h`` returns ``W``
    periodized in ``p`` with period ``pi hbar / h`` (Trefethen & Weideman,
    SIAM Rev. 56, 385 (2014)). ``W`` vanishes beyond the state's momentum
    reach ``P``, so the sum is exact to round-off once
    ``pi hbar / h > max|p_grid| + P``; ``k`` is the smallest integer with
    ``k >= dx (max|p_grid| + P) / (pi hbar)``. ``P`` is measured, not
    estimated: it is the largest ``|p|`` at which the FFT of the support
    probe's samples (step ``s <= dx``) exceeds ``1e-12`` of its peak. The
    probe sees momenta within ``+-pi hbar / s`` only and folds a band of
    momenta beyond them back into that range, so a check probe at step
    ``3 s / 16`` measures the band again. A band inside both ranges reads the
    same in both, to within two mode spacings at each end, while a folded
    one lands at other momenta unless it lies within ``pi hbar / s`` of a
    common multiple of the two fold periods, the first of which is
    ``32 pi hbar / s``. While the two disagree both steps are halved, at
    most ten times. On :meth:`GridSpec.for_orbit` grids with the default
    step ``dx = hbar / (4 m omega x_max)`` the probe's range is
    ``+-4 pi m omega x_max``, about 9 times a band state's reach of about
    ``1.4 m omega x_max``, and ``k = 1`` for any ``p_span`` below about 11.

    The momentum grid is uniform, so the sum over ``y`` is a chirp-z
    transform (Bluestein): with centred indices ``y_j = h u_j`` and
    ``p_l = p_mid + delta v_l``, the identity
    ``u v = (u^2 + v^2 - (v - u)^2) / 2`` turns it into a pre-chirp, one FFT
    convolution with the kernel ``exp(-i theta (v - u)^2 / 2)``
    (``theta = 2 delta h / hbar``, ``delta = grid.dp``) and a post-chirp, at
    ``O(Nx (Ny + Np) log(Ny + Np))`` cost.

    Each row's sum is real: its correlation row ``conj(psi(x_i + y))
    psi(x_i - y)`` is Hermitian in ``y`` on the symmetric ``u`` lattice. So
    one chirp-z of ``C_a + i C_b`` returns ``W_a + i W_b``, and two rows cost
    the FFTs of one (Cooley, Lewis & Welch, J. Sound Vib. 12, 315 (1970));
    each row picks up only its partner's round-off. Row ``j`` is paired
    with row ``Nx // 2 + 1 + j``, pairs fixed on the grid. The centre row
    ``Nx // 2`` goes alone, and so, on a grid with an even row count, does
    the row below it, so the transform costs the FFTs of ``Nx // 2 + 1``
    rows. The centre row's imaginary part, discarded elsewhere, is the
    residue that ``imag_residue=`` records. The pairs are cut into one
    contiguous span per core (:mod:`bohmdec._parallel`), and each worker
    writes, zero-pads and transforms its blocks of pairs in place in its own
    slice of one buffer, beside a table for the partner rows; the slices
    together are no larger than the one buffer a single worker reuses, or
    one pair per worker. Every pair is transformed with the same
    arithmetic whatever its span, so the field is bitwise the same for any
    worker count. ``grid.dp`` comes
    from the end points of the momentum axis, not from its first step,
    which carries a rounding that would show at 1e-12 of the peak. On a
    symmetric grid the lattice and the kernel are exactly mirrored, which
    keeps the field's parity exact.

    Parameters
    ----------
    wavefunction_sampler : callable
        Vectorized map from positions to complex amplitudes.
    grid : GridSpec
        Output grid. The position axis must carry all but ``1e-8`` of the
        state's norm.
    system : OscillatorSystemSpec

    Returns
    -------
    WignerField
        Stamped at time 0. Its notes record the quadrature step
        (``y_step=``), the measured momentum reach (``p_reach=``) and the
        largest imaginary part of the centre row's sum (``imag_residue=``).

    Raises
    ------
    GridCoverageError
        If the grid misses more than ``1e-8`` of the state's norm, or the two
        momentum probes still disagree on the reach after ten halvings.
    ValueError
        If the sampler returns NaN or inf, or zero at every probe point of the
        position axis, or the centre row's imaginary residue exceeds 1e-10
        of ``||psi||^2 / (pi hbar)``, the bound on ``|W|``.
    """
    hbar = system.hbar
    x = grid.x
    p = grid.p

    step = min(grid.dx, 0.05 * (x[-1] - x[0]))
    points, samples = _support_interval(wavefunction_sampler, float(x[0]), float(x[-1]), step)
    lo, hi = float(points[0]), float(points[-1])

    # The state's momentum band, read off the spectrum of the support probe's
    # samples and of a check probe at 3/16 of their step. A band beyond a
    # probe's range folds back into it, to the same momenta in both probes
    # only near a common multiple of their fold periods, so while the two
    # disagree at either end both steps are halved.
    for _ in range(1 + _REACH_HALVINGS):
        band, spacing = _momentum_band(samples, step, hbar)
        check_step = 3.0 * step / 16.0
        check_points = np.arange(lo, hi + check_step, check_step)
        check = _sample(wavefunction_sampler, check_points)
        if np.all(np.abs(_momentum_band(check, check_step, hbar)[0] - band) <= 2.0 * spacing):
            break
        step *= 0.5
        samples = _sample(wavefunction_sampler, np.arange(lo, hi + step, step))
    else:
        raise GridCoverageError(
            f"momentum reach still aliased at a probe step of {2.0 * step:.3e}"
        )
    p_reach = float(np.max(np.abs(band)))

    # Beyond the reach P the spectrum of psi is below 1e-12 of its peak, so
    # |psi|^2 has none beyond 2 P / hbar, and the accepted steps keep
    # P < pi hbar / step < pi hbar / check_step: by Poisson summation the
    # trapezoid sum of |psi|^2 over the check samples has no alias and is the
    # norm to round-off, bar the tails outside [lo, hi], below 1e-24 of the
    # peak density. The on-grid share reads the running sum at the two ends
    # of the position axis, interpolated between samples.
    dens = np.abs(check) ** 2
    mass = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1])) * check_step))
    norm = mass[-1]
    inside = np.interp([x[0], x[-1]], check_points, mass)
    leak = 1.0 - (inside[1] - inside[0]) / norm
    if leak > _COVERAGE_TOL:
        raise GridCoverageError(
            f"position grid misses {leak:.3e} of the state's norm "
            f"(allowed {_COVERAGE_TOL:g})"
        )
    # the y-step that keeps every alias of W off the momentum grid
    k = int(np.ceil(grid.dx * (np.max(np.abs(p)) + p_reach) / (np.pi * hbar)))
    y_step = grid.dx / k
    n_half = int(np.ceil(0.5 * (hi - lo) / y_step)) + 1
    u = np.arange(-n_half, n_half + 1)  # y_j = y_step * u_j

    # Window i of the lattice is centred on x_i: windows[i, j] = psi(x_i + y_j).
    n_lattice = (x.size - 1) * k + 2 * n_half
    centre = 0.5 * (x[0] + x[-1])
    lattice = centre + y_step * (np.arange(n_lattice + 1) - 0.5 * n_lattice)
    psi = _sample(wavefunction_sampler, lattice)
    windows = sliding_window_view(psi, u.size)[::k]

    # imported here so that importing bohmdec skips its load: about 27 MB and 0.25 s
    from scipy import fft as sp_fft

    # Chirp-z sum over y (see above); the trapezoid half-weights and the
    # prefactor ride on the pre-chirp.
    v = np.arange(p.size) - 0.5 * (p.size - 1)
    p_mid = 0.5 * (p[0] + p[-1])
    theta = 2.0 * grid.dp * y_step / hbar
    pre = np.exp(1j * ((2.0 * p_mid * y_step / hbar) * u + 0.5 * theta * u**2))
    pre[[0, -1]] *= 0.5
    pre *= y_step / (np.pi * hbar)
    post = np.exp(0.5j * theta * v**2)
    n_fft = sp_fft.next_fast_len(u.size + p.size - 1)
    lag = np.arange(n_fft)
    lag = np.where(lag < p.size, lag, lag - n_fft) + (n_half - 0.5 * (p.size - 1))
    kernel = sp_fft.fft(np.exp(-0.5j * theta * lag**2))

    # Pair j packs row j with row mid + 1 + j; the rows pairs..mid, the
    # centre and on an even grid the one row below it, go alone.
    mid = x.size // 2
    pairs = (x.size - 1) // 2
    # Each worker transforms its span of pairs in its own slice of one buffer,
    # a block at a time: every block is built, zero-padded and transformed in
    # that slice beside a table for the partner rows, and the slices together
    # hold no more entries than a 512-column table over y. The output is
    # allocated before the buffer: in the other order a repeated transform
    # of a 1933 x 2577 grid peaked 14 MB higher in resident memory, the
    # allocator's heap fragmenting round the freed buffer.
    values = np.empty((x.size, p.size))
    workers = _parallel.span_count(pairs)
    rows = max(1, 512 * u.size // (n_fft + u.size) // workers)
    buffer = np.empty(workers * rows * (n_fft + u.size), dtype=complex)

    def chirp(worker: int, first: np.ndarray, second: np.ndarray | None) -> np.ndarray:
        """Post-chirped sums of the windows ``first + 1j * second`` (``second``
        absent: zero), in worker ``worker``'s slice of the buffer."""
        n = first.shape[0]
        own = buffer[worker * rows * (n_fft + u.size) :]
        table = own[: n * n_fft].reshape(n, n_fft)
        head = table[:, : u.size]
        np.conjugate(first, out=head)
        head *= first[:, ::-1]
        if second is not None:
            partner = own[rows * n_fft : rows * n_fft + n * u.size].reshape(n, u.size)
            np.conjugate(second, out=partner)
            partner *= second[:, ::-1]
            partner *= 1j
            head += partner
        head *= pre
        table[:, u.size :] = 0.0
        table = sp_fft.fft(table, axis=1, overwrite_x=True)
        table *= kernel
        block = sp_fft.ifft(table, axis=1, overwrite_x=True)[:, : p.size]
        block *= post
        return block

    # The lone rows go first, and the centre row, the last of them, is read
    # for the residue before any pair is transformed.
    for row in range(pairs, mid + 1):
        block = chirp(0, windows[row : row + 1], None)
        values[row] = block[0].real
    worst_imag = float(np.max(np.abs(block[0].imag)))
    # |W| <= ||psi||^2 / (pi hbar), so the residue is measured against that
    # bound, which does not shrink on a grid that sees only the state's tails.
    bound = norm / (np.pi * hbar)
    if worst_imag > 1e-10 * bound:
        raise ValueError(
            f"imaginary residue {worst_imag:.3e} exceeds 1e-10 of the bound "
            f"||psi||^2/(pi hbar) = {bound:.3e}"
        )

    def transform(worker: int, pair_rows: slice) -> None:
        """Pairs ``pair_rows``: real parts to those rows, imaginary parts to
        their partners ``mid + 1`` rows on."""
        partner = slice(mid + 1 + pair_rows.start, mid + 1 + pair_rows.stop)
        block = chirp(worker, windows[pair_rows], windows[partner])
        values[pair_rows] = block.real
        values[partner] = block.imag

    _parallel.run_blocks(transform, 0, pairs, rows)
    return WignerField(
        x_grid=x,
        p_grid=p,
        values=values,
        notes=(
            f"y_step={y_step!r}",
            f"p_reach={p_reach!r}",
            f"imag_residue={worst_imag:.3e}",
        ),
    )


def exact_oscillator_wigner(
    n: int, x: np.ndarray, p: np.ndarray, system: OscillatorSystemSpec
) -> np.ndarray:
    """Closed-form Wigner function of eigenstate ``n``.

    ``W_n = ((-1)^n / (pi hbar)) exp(-z/2) L_n(z)`` with
    ``z = 4 H(x, p) / (hbar omega)``. Points with ``z/2 > 700`` return zero,
    infinite ones included: there ``exp(-z/2) |L_n(z)|`` is below 1.4e-13
    for ``n <= 300``. Higher levels raise, as the clamp would cut into their
    classically allowed region ``z < 4n + 2`` (0.043 at ``n = 350``).

    Parameters
    ----------
    n : int
        Level index, at most 300.
    x, p : array_like
        Broadcastable position and momentum samples.
    system : OscillatorSystemSpec

    Returns
    -------
    numpy.ndarray

    Raises
    ------
    ValueError
        If ``n`` is not an integer in ``0..300``, or ``x`` or ``p`` has a
        NaN entry.
    """
    if np.asarray(n).dtype.kind not in "iu" or n < 0:
        raise ValueError("level index must be a non-negative integer")
    if n > _MAX_EXACT_LEVEL:
        raise ValueError(
            f"level {n} is above {_MAX_EXACT_LEVEL}, where the z > 1400 clamp "
            "would return zeros inside the classically allowed region"
        )
    m = system.mass
    w = system.renormalized_frequency
    hbar = system.hbar
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    for name, values in (("x", x), ("p", p)):
        if np.isnan(values).any():
            raise ValueError(f"{name} has NaN entries")
    # far out z saturates to inf, and inf * 0 to NaN; the clamp writes 0 there
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        energy = p**2 / (2.0 * m) + 0.5 * m * w**2 * x**2
        z = 4.0 * energy / (hbar * w)
        t_prev = np.zeros_like(z)
        t_cur = np.exp(-0.5 * z)
        for k in range(n):
            t_next = ((2 * k + 1 - z) * t_cur - k * t_prev) / (k + 1)
            t_prev, t_cur = t_cur, t_next
    out = ((-1.0) ** n / (np.pi * hbar)) * t_cur
    return np.where(z > 1400.0, 0.0, out)


def density_matrix_from_wigner(
    field: WignerField,
    system: OscillatorSystemSpec,
    x: np.ndarray,
    x_prime: np.ndarray,
) -> np.ndarray:
    """Position-basis density matrix entries recovered from a Wigner field.

    ``rho(x, x') = integral dp W((x + x')/2, p) exp(i p (x - x') / hbar)``
    with the field's rows interpolated bicubically at the midpoints.

    The trapezoid over ``p`` comes first: two real matrix products of the
    field with each pair's weighted cosine and sine phases give an
    ``(Nx, 2 pairs)`` table, which is then spline-filtered along ``x`` and
    read at each midpoint. Both steps are linear and act on different
    axes, so the order does not change the result. The products cost
    ``O(Nx Np pairs)``; on a 1213 x 1617 field that beats filtering the
    whole field up to about 250 pairs and is twice as slow at 1024.

    Parameters
    ----------
    field : WignerField
    system : OscillatorSystemSpec
    x, x_prime : array_like
        Same-shape finite coordinate pairs (NaN or inf: ``ValueError``).

    Returns
    -------
    numpy.ndarray
        Complex entries, one per pair.
    """
    x = finite_array("x", x)
    x_prime = finite_array("x_prime", x_prime)
    if x.shape != x_prime.shape:
        raise ValueError("x and x_prime must have the same shape")
    mid = 0.5 * (x + x_prime)
    sep = x - x_prime
    if np.any(mid < field.x_grid[0]) or np.any(mid > field.x_grid[-1]):
        raise GridCoverageError("midpoint outside the field's position grid")

    # Columns j and pairs + j of the table are the cos and sin sums of pair j.
    # Each midpoint mixes the four nearest coefficient rows of its columns,
    # clipped at the edges as mode="nearest" extends them.
    pairs = sep.size
    weights = np.full(field.p_grid.size, field.dp)
    weights[[0, -1]] *= 0.5
    angle = np.outer(field.p_grid, sep.ravel()) / system.hbar
    table = np.hstack(
        [field.values @ (weights[:, None] * np.cos(angle)),
         field.values @ (weights[:, None] * np.sin(angle))]
    )
    # imported here so that importing bohmdec skips its load: about 27 MB and 0.25 s
    from scipy import ndimage

    coeffs = ndimage.spline_filter1d(table, 3, axis=0, mode="nearest")
    rows = (mid.ravel() - field.x_grid[0]) / field.dx
    index = np.floor(rows)
    t = (rows - index)[:, None]
    taps = np.clip(index.astype(int)[:, None] + np.arange(-1, 3), 0, field.x_grid.size - 1)
    basis = np.hstack(
        [(1.0 - t) ** 3, 4.0 - 6.0 * t**2 + 3.0 * t**3,
         1.0 + 3.0 * t + 3.0 * t**2 - 3.0 * t**3, t**3]
    ) / 6.0
    column = np.arange(pairs)[:, None]
    re = np.sum(basis * coeffs[taps, column], axis=1)
    im = np.sum(basis * coeffs[taps, column + pairs], axis=1)
    return (re + 1j * im).reshape(x.shape)
