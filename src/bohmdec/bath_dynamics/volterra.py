"""Response kernel of the coupled system: memory kernel and its Volterra solve.

The central oscillator's transfer blocks all reduce to one scalar response
function solving

    g(t) = sin(w0 t) + integral_0^t chi(t - t') g(t') dt'

where the memory kernel ``chi`` is a spectral integral over the environment,
tabulated by :meth:`~bohmdec.bath_dynamics.spectral.SpectralDensity.kernel_tables`
(an exact line sum for a finite bath, a closed form in the sine and cosine
integrals for the ohmic density). The solve marches the product-integration
rule forward; because ``chi(0) = 0`` every step is explicit. End-corrected
(Gregory) trapezoidal weights keep the global error at fourth order: halving
the step cuts the exact blocks' reversibility residuals by about 16. The
first two derivatives of ``g`` are evaluated from the differentiated
integral equation rather than by finite differencing, so they carry the same
accuracy as ``g`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralDensity

__all__ = ["GKernelTable", "solve_g_kernel"]

_POINTS_PER_PERIOD = 20
# Gregory end corrections of order 4: the first three weights replace the
# trapezoid's 1/2 edge weight; the interior stays at 1.
_GREGORY_EDGE = np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])


def gregory_weights(n: int, step: float) -> np.ndarray:
    """Weights for integrating a table of ``n`` equally spaced samples.

    Parameters
    ----------
    n : int
        Number of samples (the integral runs over ``(n - 1) * step``).
    step : float
        Grid spacing.

    Returns
    -------
    numpy.ndarray
        Weight vector ``w`` with ``integral ~= w @ samples``. For ``n >= 7``
        the rule is fourth order; shorter tables fall back to the plain
        trapezoid, which is exact enough for the vanishing-at-origin
        integrands it is used on.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if n == 1:
        return np.zeros(1)
    w = np.ones(n)
    if n >= 7:
        w[:3] = _GREGORY_EDGE
        w[-3:] = _GREGORY_EDGE[::-1]
    else:
        w[0] = 0.5
        w[-1] = 0.5
    return w * step


@dataclass(frozen=True)
class GKernelTable:
    """Sampled response function on a uniform time grid.

    Attributes
    ----------
    times : numpy.ndarray
        Uniform grid ``0, step, ..., n step`` covering the requested span.
    values, first_derivative, second_derivative : numpy.ndarray
        ``g`` and its first two time derivatives at the nodes.
    bare_frequency : float
        Uncoupled oscillator frequency used in the source term.
    mass : float
        Central mass entering the kernel prefactor.
    step : float
    """

    times: np.ndarray
    values: np.ndarray
    first_derivative: np.ndarray
    second_derivative: np.ndarray
    bare_frequency: float
    mass: float
    step: float

    def __post_init__(self) -> None:
        for name in ("times", "values", "first_derivative", "second_derivative"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    def node_index(self, t: float) -> int:
        """Grid index of ``|t|``, which must land on a node.

        Raises
        ------
        ValueError
            If ``|t|`` exceeds the table span or misses every node by more
            than ``1e-9`` of the step.
        """
        magnitude = abs(float(t))
        if magnitude > self.t_max * (1.0 + 1e-12):
            raise ValueError(
                f"t = {t:g} lies outside the solved span [0, {self.t_max:g}]"
            )
        index = int(round(magnitude / self.step))
        index = min(index, self.times.size - 1)
        if abs(magnitude - self.times[index]) > 1e-9 * self.step:
            raise ValueError(
                f"t = {t:g} does not coincide with a solver node (step {self.step:g})"
            )
        return index


def solve_g_kernel(
    spectral: SpectralDensity,
    bare_frequency: float,
    t_max: float,
    step: float,
    *,
    mass: float | None = None,
) -> GKernelTable:
    """March the response function and its derivatives over ``[0, t_max]``.

    Parameters
    ----------
    spectral : SpectralDensity
    bare_frequency : float
        Uncoupled frequency of the central oscillator.
    t_max, step : float
        Span and uniform step of the output grid. The step must resolve the
        fastest frequency present with at least 20 points per period.
    mass : float, optional
        Central oscillator mass. May be omitted for an ohmic density, whose
        stored mass cancels against the kernel prefactor; a discrete density
        requires it explicitly.

    Returns
    -------
    GKernelTable

    Raises
    ------
    ValueError
        If an argument is NaN or inf, the step is too coarse, or the mass is
        missing for a line spectrum.
    """
    if mass is None:
        if spectral.kind != "ohmic":
            raise ValueError("a line spectrum requires the central mass")
        mass = spectral.mass
    if not np.all(np.isfinite([bare_frequency, t_max, step, mass])):
        raise ValueError("bare_frequency, t_max, step and mass must be finite")
    if bare_frequency <= 0.0:
        raise ValueError("bare_frequency must be positive")
    if t_max <= 0.0 or step <= 0.0:
        raise ValueError("t_max and step must be positive")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    fastest = max(bare_frequency, spectral.max_frequency)
    coarsest = 2.0 * np.pi / (_POINTS_PER_PERIOD * fastest)
    if step > coarsest * (1.0 + 1e-12):
        raise ValueError(
            f"step {step:g} is too coarse: resolving {fastest:g} rad/time with "
            f"{_POINTS_PER_PERIOD} points per period needs step <= {coarsest:g}"
        )

    n = int(np.ceil(t_max / step - 1e-9))
    times = np.arange(n + 1) * step
    kernel, kernel_dot, kernel_ddot = spectral.kernel_tables(bare_frequency, mass, times)

    values = np.sin(bare_frequency * times)
    first = bare_frequency * np.cos(bare_frequency * times)
    second = -bare_frequency**2 * values
    for j in range(1, n + 1):
        history = gregory_weights(j + 1, step)[:j] * values[:j]
        values[j] += np.dot(history, kernel[j:0:-1])
        first[j] += np.dot(history, kernel_dot[j:0:-1])
        second[j] += np.dot(history, kernel_ddot[j:0:-1])

    return GKernelTable(
        times=times,
        values=values,
        first_derivative=first,
        second_derivative=second,
        bare_frequency=float(bare_frequency),
        mass=float(mass),
        step=float(step),
    )
