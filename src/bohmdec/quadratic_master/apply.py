"""Apply a Gaussian propagator to a sampled Wigner field.

In the pulled-back frame the propagator smears the initial field with the
normalized Gaussian of covariance ``M / 2`` and reads it at ``A^-1 eta``.
The smear is exact in Fourier space, where it multiplies the transform by
``exp(-k^T M k / 4)``: the action of a Gaussian channel on the characteristic
function (Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012), Sec. III).
A discrete transform convolves circularly, so the field is zero-padded into
one buffer covering the input grid and every pulled-back point, plus four
cells for the bicubic stencil, plus ``_SIGMA_CUT`` smearing widths on each
side so that mass smeared past one edge cannot wrap round into the values
read near the other. The smear stays exact for a singular ``M``; only a
negligible one, every entry below ``1e-7 hbar``, takes an exact bilinear
pullback instead.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sp_fft
from scipy import ndimage

from ..errors import NumericalFailureError
from ..phase_space import OscillatorSystemSpec, WignerField
from .propagator import GaussianPropagator

__all__ = ["propagate_wigner"]

_SIGMA_CUT = 8.0
_DELTA_M_FLOOR = 1e-7
_NORM_GUARD = 1e-3


def _padded_axis(index: np.ndarray, size: int, width: float) -> tuple[int, int]:
    """Buffer start and length covering the ``size`` input cells, ``index`` and the margins."""
    margin = 4 + int(np.ceil(_SIGMA_CUT * width))
    lo = min(int(np.floor(index.min())), 0) - margin
    hi = max(int(np.ceil(index.max())), size - 1) + margin
    return lo, sp_fft.next_fast_len(hi - lo + 1, real=True)


def propagate_wigner(
    propagator: GaussianPropagator, field: WignerField, system: OscillatorSystemSpec
) -> WignerField:
    """Evolve a Wigner field with a Gaussian propagator.

    ``field`` is treated as zero outside its grid; ``system`` supplies
    ``hbar`` for the negligible-smear threshold. Returns the evolved
    samples on the same grid with the time stamp advanced by the propagator's
    time; the notes record the path (``spectral_smear`` with the buffer
    shape, or ``delta_fallback``) and the mass residual.

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
    a_inv = np.linalg.inv(a)
    # pulled-back output grid, in steps from the first input cell
    rows = (a_inv[0, 0] * x[:, None] + a_inv[0, 1] * p - x[0]) / dx
    cols = (a_inv[1, 0] * x[:, None] + a_inv[1, 1] * p - p[0]) / dp

    if float(np.abs(m).max()) < _DELTA_M_FLOOR * system.hbar:
        source, order, note = field.values, 1, "delta_fallback"
    else:
        # a singular M may carry a round-off negative diagonal entry
        lo_x, n_x = _padded_axis(rows, x.size, np.sqrt(0.5 * max(m[0, 0], 0.0)) / dx)
        lo_p, n_p = _padded_axis(cols, p.size, np.sqrt(0.5 * max(m[1, 1], 0.0)) / dp)
        buffer = np.zeros((n_x, n_p))
        buffer[-lo_x : x.size - lo_x, -lo_p : p.size - lo_p] = field.values
        spectrum = sp_fft.rfft2(buffer)
        del buffer
        kx = 2.0 * np.pi * sp_fft.fftfreq(n_x, dx)[:, None]
        kp = 2.0 * np.pi * sp_fft.rfftfreq(n_p, dp)[None, :]
        spectrum *= np.exp(-0.25 * (m[0, 0] * kx**2 + 2.0 * m[0, 1] * kx * kp + m[1, 1] * kp**2))
        source = sp_fft.irfft2(spectrum, s=(n_x, n_p))
        del spectrum
        rows -= lo_x
        cols -= lo_p
        order, note = 3, f"spectral_smear(buffer={n_x}x{n_p})"
    values = ndimage.map_coordinates(source, [rows, cols], order=order, mode="constant")
    values /= det_a

    out = WignerField(x, p, values, field.time_stamp + propagator.t, tuple(field.notes) + (note,))
    mass_in, mass_out = field.normalization(), out.normalization()
    drift = abs(mass_out - mass_in) / max(abs(mass_in), 1e-300)
    out.notes = out.notes + (f"mass_residual={drift:.3e}",)
    if not drift <= _NORM_GUARD:
        raise NumericalFailureError(
            f"propagated mass drifted by {drift:.3e} (input {mass_in:.6e}, output {mass_out:.6e})"
        )
    return out
