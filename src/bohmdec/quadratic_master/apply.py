"""Apply a Gaussian propagator to a sampled Wigner field.

In the pulled-back frame the propagator smears the initial field with the
normalized Gaussian of covariance ``M / 2`` and reads it at ``A^-1 eta``.
The smear is exact in Fourier space, where it multiplies the transform by
``exp(-k^T M k / 4)``: the action of a Gaussian channel on the characteristic
function (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), Sec. III). The
same multiply divides by the cubic B-spline symbol ``(2 + cos kx dx)(2 + cos
kp dp) / 9``, the exact bicubic prefilter on a periodic buffer (Unser, IEEE
Signal Proc. Mag. 16(6), 22 (1999)). The buffer is the input grid zero-padded
by four stencil cells plus ``_SIGMA_CUT`` smearing widths on each side, so
mass smeared past one edge cannot wrap round into values read near the other.
A point that pulls back outside the buffer is that far from every input cell
and reads 0; its true value is below ``e^-32`` of the peak. The smear stays
exact for a singular ``M``, zero included, where it multiplies by 1 and only
the bicubic pullback along ``A`` remains.

Every stage runs in one complex array of shape ``(n_x, n_p // 2 + 1)``. Its
float view has rows of ``2 (n_p // 2 + 1)`` floats, enough for a padded real
row of ``n_p``: FFTW's in-place layout for real transforms (Frigo & Johnson,
Proc. IEEE 93, 216 (2005)), in which a real array and its half spectrum share
the same bytes. The real-to-complex and complex-to-real passes along ``p``
and the smearing multiply go ``_BLOCK_ROWS`` rows at a time, and the passes
along ``x`` run in place, so the propagation holds one buffer and one output
field at its peak.

The row stages run on every core (:mod:`bohmdec._parallel`): each worker
takes one contiguous span of rows through the blocked passes along ``p``
and the multiply, and the passes along ``x`` take scipy's own ``workers``.
The bicubic pullback runs one ``affine_transform`` per span of output rows,
each writing its rows of the one output field, its offset shifted by the
span's first row. Each worker's temporaries are ``_BLOCK_ROWS`` rows, so the
peak stays one buffer and one output. A row's spectrum and smeared value do
not depend on the spans; the shifted offsets round differently, so the
output moves with the worker count by round-off (about 1e-15 of the peak).
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft
from scipy import ndimage

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
    margin = 4 + int(np.ceil(_SIGMA_CUT * width))
    return margin, sp_fft.next_fast_len(size + 2 * margin, real=True)


def _blocked(job, first: int, last: int) -> None:
    """``job(rows)`` on each ``_BLOCK_ROWS`` block of rows ``first:last``, one
    span of blocks per worker."""

    def span(worker: int, lo: int, hi: int) -> None:
        for start in range(first + lo, first + hi, _BLOCK_ROWS):
            job(slice(start, min(start + _BLOCK_ROWS, first + hi)))

    _parallel.run_spans(span, _parallel.row_spans(last - first))


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
    the output field.

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
    x, p, dx, dp = field.x_grid, field.p_grid, field.dx, field.dp

    # a singular M may carry a round-off negative diagonal entry
    pad_x, n_x = _padded_axis(x.size, np.sqrt(0.5 * max(m[0, 0], 0.0)) / dx)
    pad_p, n_p = _padded_axis(p.size, np.sqrt(0.5 * max(m[1, 1], 0.0)) / dp)
    spectrum = np.zeros((n_x, n_p // 2 + 1), dtype=complex)
    source = spectrum.view(float)  # rows of 2 (n_p // 2 + 1) >= n_p floats
    source[pad_x : pad_x + x.size, pad_p : pad_p + p.size] = field.values
    kx = 2.0 * np.pi * sp_fft.fftfreq(n_x, dx)[:, None]
    kp = 2.0 * np.pi * sp_fft.rfftfreq(n_p, dp)[None, :]

    def forward(rows: slice) -> None:
        spectrum[rows] = sp_fft.rfft(source[rows, :n_p], axis=1)

    def smear(rows: slice) -> None:
        k = kx[rows]
        spectrum[rows] *= np.exp(
            -0.25 * (m[0, 0] * k**2 + 2.0 * m[0, 1] * k * kp + m[1, 1] * kp**2)
        )
        spectrum[rows] *= 9.0 / ((2.0 + np.cos(k * dx)) * (2.0 + np.cos(kp * dp)))

    def inverse(rows: slice) -> None:
        source[rows, :n_p] = sp_fft.irfft(spectrum[rows], n_p, axis=1)

    # the rows outside the input are zero and transform to zero
    _blocked(forward, pad_x, pad_x + x.size)
    spectrum = sp_fft.fft(spectrum, axis=0, overwrite_x=True, workers=_parallel.WORKERS)
    _blocked(smear, 0, n_x)
    spectrum = sp_fft.ifft(spectrum, axis=0, overwrite_x=True, workers=_parallel.WORKERS)
    source = spectrum.view(float)
    _blocked(inverse, 0, n_x)

    # A^-1 in index units: output cell j reads source cell matrix @ j + offset
    step, corner = np.array([dx, dp]), np.array([x[0] / dx, p[0] / dp])
    matrix = np.linalg.inv(a) * step / step[:, None]
    offset = matrix @ corner - corner + (pad_x, pad_p)
    values = np.empty(field.values.shape)

    def pull_back(worker: int, lo: int, hi: int) -> None:
        # output row i of the span is row lo + i of the whole field
        ndimage.affine_transform(
            source[:, :n_p], matrix, offset + matrix[:, 0] * lo, output=values[lo:hi],
            order=3, mode="constant", prefilter=False,
        )

    _parallel.run_spans(pull_back, _parallel.row_spans(x.size))
    values /= det_a

    note = f"spectral_smear(buffer={n_x}x{n_p})"
    out = WignerField(x, p, values, field.time_stamp + propagator.t, tuple(field.notes) + (note,))
    mass_in, mass_out = field.normalization(), out.normalization()
    drift = abs(mass_out - mass_in) / max(abs(mass_in), 1e-300)
    out.notes = out.notes + (f"mass_residual={drift:.3e}",)
    if not drift <= _NORM_GUARD:
        raise NumericalFailureError(
            f"propagated mass drifted by {drift:.3e} (input {mass_in:.6e}, output {mass_out:.6e})"
        )
    return out
