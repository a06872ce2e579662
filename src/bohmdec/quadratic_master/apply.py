"""Apply a Gaussian propagator to a sampled Wigner field.

In the pulled-back frame the propagator smears the initial field with the
normalized Gaussian of covariance ``M / 2`` and reads it at ``A^-1 eta``.
The smear is exact in Fourier space, where it multiplies the transform by
``exp(-k^T M k / 4)``: the action of a Gaussian channel on the characteristic
function (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), Sec. III). The
same multiply divides by the cubic B-spline symbol ``(2 + cos kx dx)(2 + cos
kp dp) / 9``, the exact bicubic prefilter on a periodic buffer (Unser, IEEE
Signal Proc. Mag. 16(6), 22 (1999)). The buffer is the input grid zero-padded
by the bicubic stencil's reach, two cells, plus ``_SIGMA_CUT`` smearing
widths on each side, so mass smeared past one edge cannot wrap round into
values read near the other.
A point that pulls back outside the buffer is that far from every input cell
and reads 0; its true value is below ``e^-32`` of the peak. The smear stays
exact for a singular ``M``, zero included, where it multiplies by 1 and only
the bicubic pullback along ``A`` remains.

Only the spectrum that can still move the field is transformed along ``x``
and multiplied. A half-spectrum cell whose factor is below ``e^-E_c``, with
``E_c = ln(20 N_in / eps)`` and ``N_in`` the input's cell count, is dropped:
its mirror has the same factor, and the ``n_x n_p`` cells of the full
spectrum each move a spline coefficient by at most ``9 e^-E_c / (n_x n_p)``
times ``sum |w_in| <= N_in max |w_in|`` (9 is the prefilter's largest
gain), so together they move it by at most ``9 eps / 20 < eps / 2`` times
``max |w_in|``. The bicubic weights are nonnegative and sum to one, so an
output value moves by at most ``eps / 2 max |w_in| / det A``. The cut needs
no tuning: it follows from ``eps`` and the input's size. Row ``kx`` keeps
the ``kp`` within ``sqrt(4 E_c / m11 - det M kx^2 / m11^2)`` of
``-m01 kx / m11``, and no row reaches a column with
``det M kp^2 / (4 m00) > E_c``, the least value of ``k^T M k / 4`` down
that column. Where ``det M <= 0`` or ``m11 <= 0`` these bounds do not hold,
and every column (and every cell, for ``m11 <= 0``) a bound cannot exclude
is kept. For ``canonical_cl_run`` at five smoothing times ``E_c = 53.4`` and
12% of the columns are kept; at t -> 0 all are, and the calls are those of
the uncut smear.

Every stage runs in one complex array of shape ``(n_x, n_p // 2 + 1)``. Its
float view has rows of ``2 (n_p // 2 + 1)`` floats, enough for a padded real
row of ``n_p``: FFTW's in-place layout for real transforms (Frigo & Johnson,
Proc. IEEE 93, 216 (2005)), in which a real array and its half spectrum share
the same bytes. The copy of the field into the buffer, the real-to-complex
and complex-to-real passes along ``p`` and the smearing multiply go
``_BLOCK_ROWS`` rows at a time. The passes along ``x`` run in place on the
strided view of the kept columns (scipy's ``overwrite_x`` writes a strided
view in place; a copy would be written back), and the multiply covers a
block's rows up to the furthest column any of them keeps and zeroes the rest
of the block. So the propagation holds one buffer and one output field at
its peak.

The row stages run on every core, each through
:func:`~bohmdec._parallel.run_blocks`: each worker takes one contiguous span
of rows through the blocked copy, passes along ``p`` and multiply,
``_BLOCK_ROWS`` rows at a time, and the passes along ``x`` take scipy's own
``workers``. The bicubic pullback takes each span as one block: one
``affine_transform`` per span of output rows, each writing and then dividing
by ``det A`` its rows of the one output field, its offset shifted by the
span's first row. Each worker's temporaries are
``_BLOCK_ROWS`` rows, so the peak stays one buffer and one output. A row's
spectrum and smeared value do not depend on the spans; the shifted offsets
round differently, so the output moves with the worker count by round-off
(about 1e-15 of the peak).
"""

from __future__ import annotations

import numpy as np

from .. import _parallel
from ..errors import NumericalFailureError
from ..phase_space import OscillatorSystemSpec, WignerField
from .propagator import GaussianPropagator

__all__ = ["propagate_wigner"]

_SIGMA_CUT = 8.0
_NORM_GUARD = 1e-3
# Rows per pass of the blocked stages, whose temporaries must stay small
# against the buffer; each worker holds one pass's temporaries at a time.
# 4 to 64 rows timed alike on a 2880 x 3750 buffer on one core.
_BLOCK_ROWS = 16


def _padded_axis(size: int, width: float) -> tuple[int, int]:
    """Margin and buffer length for ``size`` input cells smeared ``width`` cells wide."""
    # imported here so that importing bohmdec skips its load: about 27 MB and 0.25 s
    from scipy import fft as sp_fft

    margin = 2 + int(np.ceil(_SIGMA_CUT * width))
    return margin, sp_fft.next_fast_len(size + 2 * margin, real=True)


def _tail_exponent(cells: int) -> float:
    """``E_c = ln(20 cells / eps)``: a smearing factor below ``e^-E_c`` moves no
    output of a ``cells``-cell input by half an ulp of its peak (module notes)."""
    return float(np.log(20.0 * cells / np.finfo(float).eps))


def _support(m: np.ndarray, kx: np.ndarray, kp: np.ndarray, tail: float) -> tuple[int, np.ndarray]:
    """Columns the passes along ``x`` transform, and the columns each row keeps.

    ``kx`` and ``kp`` are the buffer's frequencies, ``kp`` ascending; a cell is
    kept unless ``k^T M k / 4 > tail``. Each row keeps the columns up to its
    ellipse's upper ``kp`` edge, and no row keeps a column beyond the first
    ``keep``.
    """
    n = kp.size
    if not m[1, 1] > 0.0:
        return n, np.full(kx.size, n)
    det = m[0, 0] * m[1, 1] - m[0, 1] ** 2
    keep = n
    if det > 0.0:
        keep = int(np.searchsorted(kp, np.sqrt(4.0 * tail * m[0, 0] / det), side="right"))
    spread = 4.0 * tail / m[1, 1] - det * kx**2 / m[1, 1] ** 2
    edge = np.where(
        spread >= 0.0, np.sqrt(np.maximum(spread, 0.0)) - m[0, 1] * kx / m[1, 1], -np.inf
    )
    return keep, np.minimum(np.searchsorted(kp, edge, side="right"), keep)


def propagate_wigner(
    propagator: GaussianPropagator, field: WignerField, system: OscillatorSystemSpec
) -> WignerField:
    """Evolve a Wigner field with a Gaussian propagator.

    ``field`` is treated as zero outside its grid, and an output point that
    pulls back beyond the smearing buffer reads 0. ``system`` is accepted for
    the callers' uniform signature and is not used. Returns the evolved samples
    on the same grid with the time stamp advanced by the propagator's time; the
    notes record the path (``spectral_smear`` with the buffer shape, set by the
    grid and ``M`` alone) and the mass residual.

    The padded field, its spectrum and the smeared field share one complex
    buffer in FFTW's in-place real layout (see the module notes), and the
    bicubic pullback reads the first ``n_p`` floats of each of its rows. The
    memory this costs is that buffer, ``16 n_x (n_p // 2 + 1)`` bytes, plus
    the output field. Spectrum cells whose smearing factor is below
    ``e^-E_c``, ``E_c = ln(20 N_in / eps)`` for an input of ``N_in`` cells,
    are dropped: the passes along ``x`` run in place on the first columns
    that any row keeps, and the multiply on each row block stops at its
    furthest kept column and zeroes the rest. That moves each output value
    by at most ``eps / 2 max |w_in| / det A`` (see the module notes). The
    copy into the buffer and the division by ``det A`` run in the row stages.

    Raises
    ------
    NumericalFailureError
        If the flow is orientation-reversing, or the output mass is not
        within 1e-3 of the input mass (a NaN mass is never within).
    """
    a, m = propagator.a, propagator.m
    det_a = float(np.linalg.det(a))
    if det_a <= 0.0:
        raise NumericalFailureError("flow matrix must preserve orientation")
    # imported here so that importing bohmdec skips their load: about 29 MB and 0.3 s
    from scipy import fft as sp_fft
    from scipy import ndimage

    x, p, dx, dp = field.x_grid, field.p_grid, field.dx, field.dp

    # a singular M may carry a round-off negative diagonal entry
    pad_x, n_x = _padded_axis(x.size, np.sqrt(0.5 * max(m[0, 0], 0.0)) / dx)
    pad_p, n_p = _padded_axis(p.size, np.sqrt(0.5 * max(m[1, 1], 0.0)) / dp)
    spectrum = np.zeros((n_x, n_p // 2 + 1), dtype=complex)
    source = spectrum.view(float)  # rows of 2 (n_p // 2 + 1) >= n_p floats
    kx = 2.0 * np.pi * sp_fft.fftfreq(n_x, dx)
    kp = 2.0 * np.pi * sp_fft.rfftfreq(n_p, dp)
    keep, reach = _support(m, kx, kp, _tail_exponent(field.values.size))
    kx, kp = kx[:, None], kp[None, :]

    def forward(worker: int, rows: slice) -> None:
        source[rows, pad_p : pad_p + p.size] = field.values[rows.start - pad_x : rows.stop - pad_x]
        spectrum[rows] = sp_fft.rfft(source[rows, :n_p], axis=1)

    def along_x(transform) -> None:
        kept = spectrum[:, :keep]
        out = transform(kept, axis=0, overwrite_x=True, workers=_parallel.WORKERS)
        if not np.may_share_memory(out, kept):
            kept[...] = out

    def smear(worker: int, rows: slice) -> None:
        k, cols = kx[rows], reach[rows].max()
        q = kp[:, :cols]
        block = spectrum[rows, :cols]
        block *= np.exp(-0.25 * (m[0, 0] * k**2 + 2.0 * m[0, 1] * k * q + m[1, 1] * q**2))
        block *= 9.0 / ((2.0 + np.cos(k * dx)) * (2.0 + np.cos(q * dp)))
        spectrum[rows, cols:] = 0.0

    def inverse(worker: int, rows: slice) -> None:
        source[rows, :n_p] = sp_fft.irfft(spectrum[rows], n_p, axis=1)

    # the rows outside the input are zero and transform to zero
    _parallel.run_blocks(forward, pad_x, pad_x + x.size, _BLOCK_ROWS)
    along_x(sp_fft.fft)
    _parallel.run_blocks(smear, 0, n_x, _BLOCK_ROWS)
    along_x(sp_fft.ifft)
    _parallel.run_blocks(inverse, 0, n_x, _BLOCK_ROWS)

    # A^-1 in index units: output cell j reads source cell matrix @ j + offset
    step, corner = np.array([dx, dp]), np.array([x[0] / dx, p[0] / dp])
    matrix = np.linalg.inv(a) * step / step[:, None]
    offset = matrix @ corner - corner + (pad_x, pad_p)
    values = np.empty(field.values.shape)

    def pull_back(worker: int, rows: slice) -> None:
        # output row i of the span is row rows.start + i of the whole field
        ndimage.affine_transform(
            source[:, :n_p], matrix, offset + matrix[:, 0] * rows.start, output=values[rows],
            order=3, mode="constant", prefilter=False,
        )
        values[rows] /= det_a

    # a block as long as the field, so each worker's span is one block
    _parallel.run_blocks(pull_back, 0, x.size, x.size)

    note = f"spectral_smear(buffer={n_x}x{n_p})"
    out = WignerField(x, p, values, field.time_stamp + propagator.t, tuple(field.notes) + (note,))
    mass_in, mass_out = field.normalization(), out.normalization()
    drift = abs(mass_out - mass_in) / max(abs(mass_in), np.finfo(float).tiny)
    out.notes = out.notes + (f"mass_residual={drift:.3e}",)
    if not drift <= _NORM_GUARD:
        raise NumericalFailureError(
            f"propagated mass drifted by {drift:.3e} (input {mass_in:.6e}, output {mass_out:.6e})"
        )
    return out
