"""Oscillator band states and their phase-space representations."""

from .eigenstates import eigenfunction_table
from .system import (
    ClassicalOrbit,
    EnergyBandState,
    OscillatorSystemSpec,
    build_energy_band_state,
    classical_orbit,
)
from .wigner import (
    GridSpec,
    WignerField,
    density_matrix_from_wigner,
    exact_oscillator_wigner,
    wigner_transform,
)
from .wkb import WkbAmplitudes, band_wavefunction, wkb_amplitudes, wkb_wavefunction

__all__ = [
    "ClassicalOrbit",
    "EnergyBandState",
    "GridSpec",
    "OscillatorSystemSpec",
    "WignerField",
    "WkbAmplitudes",
    "band_wavefunction",
    "build_energy_band_state",
    "classical_orbit",
    "density_matrix_from_wigner",
    "eigenfunction_table",
    "exact_oscillator_wigner",
    "wigner_transform",
    "wkb_amplitudes",
    "wkb_wavefunction",
]
