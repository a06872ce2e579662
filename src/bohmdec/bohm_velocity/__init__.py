"""Ensemble velocity fields, their semiclassical decomposition, timescales."""

from .decomposition import (
    BranchWidths,
    MInverseParams,
    SemiclassicalDecomposition,
    ValidityReport,
    semiclassical_decomposition,
    validity_window,
)
from .timescales import TimescaleReport, timescales
from .velocity import classical_band_margin, ensemble_velocity, initial_velocity

__all__ = [
    "BranchWidths",
    "MInverseParams",
    "SemiclassicalDecomposition",
    "TimescaleReport",
    "ValidityReport",
    "classical_band_margin",
    "ensemble_velocity",
    "initial_velocity",
    "semiclassical_decomposition",
    "timescales",
    "validity_window",
]
