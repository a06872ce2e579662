"""Thermal coherent-state sampling of the environment modes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._guards import finite_array, freeze_fields, require_integer, require_nonnegative
from .spectral import BathSpec

__all__ = ["CoherentBathSample", "sample_bath"]


@dataclass(frozen=True)
class CoherentBathSample:
    """Coherent-state centers for every mode, with seed provenance.

    Attributes
    ----------
    positions, momenta : numpy.ndarray
        Center coordinates per mode, shape ``(N,)``.
    seed : int
        Seed of the counter-based generator that produced the draw.

    NaN or inf in a centre raises ``ValueError``.
    """

    positions: np.ndarray
    momenta: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        freeze_fields(self, ("positions", "momenta"))
        positions, momenta = self.positions, self.momenta
        if positions.shape != momenta.shape or positions.ndim != 1:
            raise ValueError("positions and momenta must be 1-D and equal length")
        for name in ("positions", "momenta"):
            finite_array(f"CoherentBathSample.{name}", getattr(self, name))

    @property
    def n_modes(self) -> int:
        return self.positions.size

    def vectors(self) -> np.ndarray:
        """Centers as ``(N, 2)`` phase-space rows."""
        return np.stack([self.positions, self.momenta], axis=1)


def sample_bath(bath: BathSpec, seed: int) -> CoherentBathSample:
    """Draw coherent-state centers from the thermal quasi-probability.

    Writing the thermal state of mode ``r`` over coherent states gives a
    Gaussian weight with ``Var(x_r) = lam_r^2 / (e^(beta_r) - 1)`` and
    ``Var(p_r) = hbar^2 / (lam_r^2 (e^(beta_r) - 1))``, independent across
    modes and quadratures; ``lam_r`` is the coherent-state width. Draws use a
    counter-based generator, all positions first and then all momenta, so a
    fixed seed reproduces the stream exactly. As the temperature approaches
    zero the occupancy underflows and every center collapses to the origin.
    ``seed`` must be a non-negative whole number (``ValueError`` otherwise).
    """
    seed = require_integer("seed", seed)
    require_nonnegative("seed", seed)
    rng = np.random.Generator(np.random.Philox(seed))
    with np.errstate(over="ignore"):
        occupancy = 1.0 / np.expm1(bath.thermal_ratios)
    width = bath.coherent_widths
    spread = np.sqrt(occupancy)
    positions = rng.standard_normal(bath.n_modes) * width * spread
    momenta = rng.standard_normal(bath.n_modes) * (bath.hbar / width) * spread
    return CoherentBathSample(positions=positions, momenta=momenta, seed=seed)
