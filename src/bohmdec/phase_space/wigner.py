"""Phase-space grids, Wigner fields, and the wavefunction-to-Wigner map."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy import ndimage

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
    """``values`` as a 1-D float axis, rejected unless uniformly spaced.

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
        """
        sys_ = orbit.system
        p_scale = sys_.mass * sys_.renormalized_frequency * orbit.amplitude
        if x_step is None:
            x_step = orbit.de_broglie / 4.0
        if p_step is None:
            p_step = sys_.hbar / (4.0 * orbit.amplitude)
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
) -> tuple[float, float]:
    """Locate where ``|psi|`` exceeds ``_ENVELOPE_CUTOFF`` times its peak.

    The probe window is widened until the envelope is below threshold at both
    ends. Returns ``(lo, hi)``.
    """
    lo, hi = probe_lo, probe_hi
    for _ in range(12):
        grid = np.arange(lo, hi + probe_step, probe_step)
        env = np.abs(_sample(sampler, grid))
        mask = env > _ENVELOPE_CUTOFF * env.max()
        if mask[0] or mask[-1]:
            width = hi - lo
            lo -= 0.5 * width
            hi += 0.5 * width
            continue
        idx = np.nonzero(mask)[0]
        return float(grid[idx[0]]), float(grid[idx[-1]])
    raise GridCoverageError("could not bracket the wavefunction support")


def wigner_transform(
    wavefunction_sampler: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    system: OscillatorSystemSpec,
    time_stamp: float = 0.0,
) -> WignerField:
    """Wigner function of a pure state on a phase-space grid.

    Evaluates ``W(x, p) = (1/pi hbar) Re integral dy
    psi*(x + y) psi(x - y) exp(2 i p y / hbar)`` by a symmetric trapezoid sum
    in ``y`` with step ``h = dx / k``: the smallest integer ``k`` for which
    ``h`` resolves both the grid's fastest phase and the state's own momentum
    content (``h <= 0.2 hbar / p_fast``). Every point ``x_i +- y_j`` then
    lies on one lattice of step ``h`` centred on the grid, so the
    wavefunction is sampled once on that lattice and the correlation table
    ``psi*(x_i + y_j) psi(x_i - y_j)`` is read from strided windows of it,
    one block of rows at a time.

    The momentum grid is uniform, so the sum over ``y`` is a chirp-z
    transform (Bluestein): with centred indices ``y_j = h u_j`` and
    ``p_l = p_mid + delta v_l``, the identity
    ``u v = (u^2 + v^2 - (v - u)^2) / 2`` turns it into a pre-chirp, one FFT
    convolution with the kernel ``exp(-i theta (v - u)^2 / 2)``
    (``theta = 2 delta h / hbar``, ``delta = grid.dp``) and a post-chirp, at
    ``O(Nx (Ny + Np) log(Ny + Np))`` cost. ``grid.dp`` comes from the end
    points of the momentum axis, not from its first step, which carries a
    rounding that would show at 1e-12 of the peak. On a symmetric grid the
    lattice and the kernel are exactly mirrored, which keeps the field's
    parity exact.

    Parameters
    ----------
    wavefunction_sampler : callable
        Vectorized map from positions to complex amplitudes.
    grid : GridSpec
        Output grid. The position axis must carry all but ``1e-8`` of the
        state's norm.
    system : OscillatorSystemSpec
    time_stamp : float
        Recorded on the returned field.

    Returns
    -------
    WignerField
        Its notes record the quadrature step (``y_step=``) and the largest
        discarded imaginary part (``imag_residue=``).

    Raises
    ------
    GridCoverageError
        If the grid misses more than ``1e-8`` of the state's norm.
    ValueError
        If the sampler returns NaN or inf, or the discarded imaginary residue
        exceeds 1e-10 of the field scale.
    """
    hbar = system.hbar
    x = grid.x
    p = grid.p

    probe_step = min(grid.dx, 0.05 * (x[-1] - x[0]))
    lo, hi = _support_interval(wavefunction_sampler, float(x[0]), float(x[-1]), probe_step)

    fine = np.arange(lo, hi + probe_step / 4.0, probe_step / 4.0)
    dens = np.abs(_sample(wavefunction_sampler, fine)) ** 2
    inside = np.where((fine >= x[0]) & (fine <= x[-1]), dens, 0.0)
    leak = 1.0 - _trapezoid(inside, 1.0) / _trapezoid(dens, 1.0)
    if leak > _COVERAGE_TOL:
        raise GridCoverageError(
            f"position grid misses {leak:.3e} of the state's norm "
            f"(allowed {_COVERAGE_TOL:g})"
        )

    # Momentum scales: the output grid's own extreme and the state's
    # semiclassical content estimated from its support half-width.
    p_grid_max = float(np.max(np.abs(p)))
    half_width = 0.5 * (hi - lo)
    p_state = system.mass * system.renormalized_frequency * half_width
    p_fast = max(p_grid_max, p_state)
    k = int(np.ceil(grid.dx * p_fast / (0.2 * hbar)))
    y_step = grid.dx / k
    n_half = int(np.ceil(half_width / y_step)) + 1
    u = np.arange(-n_half, n_half + 1)  # y_j = y_step * u_j

    # Window i of the lattice is centred on x_i: windows[i, j] = psi(x_i + y_j).
    n_lattice = (x.size - 1) * k + 2 * n_half
    centre = 0.5 * (x[0] + x[-1])
    lattice = centre + y_step * (np.arange(n_lattice + 1) - 0.5 * n_lattice)
    psi = _sample(wavefunction_sampler, lattice)
    windows = sliding_window_view(psi, u.size)[::k]

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

    values = np.empty((x.size, p.size))
    worst_imag = 0.0
    # each block holds no more entries than a 512-column table over y
    rows = max(1, 512 * u.size // n_fft)
    for start in range(0, x.size, rows):
        win = windows[start : start + rows]
        f_mat = np.conjugate(win) * pre
        f_mat *= win[:, ::-1]
        spectrum = sp_fft.fft(f_mat, n_fft, axis=1)
        spectrum *= kernel
        block = sp_fft.ifft(spectrum, axis=1, overwrite_x=True)[:, : p.size]
        block *= post
        values[start : start + rows] = block.real
        worst_imag = max(worst_imag, float(np.max(np.abs(block.imag))))

    scale = float(np.max(np.abs(values)))
    if worst_imag > 1e-10 * scale:
        raise ValueError(
            f"imaginary residue {worst_imag:.3e} exceeds 1e-10 of the field "
            f"scale {scale:.3e}"
        )
    return WignerField(
        x_grid=x,
        p_grid=p,
        values=values,
        time_stamp=time_stamp,
        notes=(f"y_step={y_step!r}", f"imag_residue={worst_imag:.3e}"),
    )


def exact_oscillator_wigner(
    n: int, x: np.ndarray, p: np.ndarray, system: OscillatorSystemSpec
) -> np.ndarray:
    """Closed-form Wigner function of eigenstate ``n``.

    ``W_n = ((-1)^n / (pi hbar)) exp(-z/2) L_n(z)`` with
    ``z = 4 H(x, p) / (hbar omega)``. Points with ``z/2 > 700`` return zero
    (the damped Laguerre product underflows there for the level range this
    closed form is used on).

    Parameters
    ----------
    n : int
        Level index.
    x, p : array_like
        Broadcastable position and momentum samples.
    system : OscillatorSystemSpec

    Returns
    -------
    numpy.ndarray
    """
    if np.asarray(n).dtype.kind not in "iu" or n < 0:
        raise ValueError("level index must be a non-negative integer")
    m = system.mass
    w = system.renormalized_frequency
    hbar = system.hbar
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    energy = p**2 / (2.0 * m) + 0.5 * m * w**2 * x**2
    z = 4.0 * energy / (hbar * w)
    with np.errstate(under="ignore"):
        t_prev = np.zeros_like(z)
        t_cur = np.exp(-0.5 * np.minimum(z, 1500.0))
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

    Parameters
    ----------
    field : WignerField
    system : OscillatorSystemSpec
    x, x_prime : array_like
        Same-shape coordinate pairs.

    Returns
    -------
    numpy.ndarray
        Complex entries, one per pair.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x_prime = np.atleast_1d(np.asarray(x_prime, dtype=float))
    if x.shape != x_prime.shape:
        raise ValueError("x and x_prime must have the same shape")
    mid = 0.5 * (x + x_prime)
    sep = x - x_prime
    if np.any(mid < field.x_grid[0]) or np.any(mid > field.x_grid[-1]):
        raise GridCoverageError("midpoint outside the field's position grid")

    # one bicubic prefilter shared by every midpoint row
    coeffs = ndimage.spline_filter(field.values, order=3, mode="nearest")
    rows = (mid.ravel() - field.x_grid[0]) / field.dx
    cols = np.arange(field.p_grid.size, dtype=float)
    lines = ndimage.map_coordinates(
        coeffs,
        np.broadcast_arrays(rows[:, None], cols[None, :]),
        order=3,
        mode="nearest",
        prefilter=False,
    )
    phase = np.exp(1j * np.outer(sep.ravel(), field.p_grid) / system.hbar)
    return _trapezoid(lines * phase, field.dp, axis=1).reshape(x.shape)
