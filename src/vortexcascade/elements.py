"""Spiral phase plates, and the seed charges the interferometer's mirrors leave
at the crystal."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import ComplexFieldGrid

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SppSpec:
    """Spiral phase plate: design charge and wavelength, optional step count.

    n_steps=None means the ideal continuous ramp; a quantized plate uses
    n_steps azimuthal levels with step boundaries at theta = 2*pi*k/n_steps,
    the first boundary on the +x axis. Applied at a wavelength other than the
    design one, the imprinted phase depth scales by design_wavelength/lambda
    (thin plate, material dispersion ignored).
    """

    design_charge: int
    design_wavelength: float
    n_steps: int | None = None

    def __post_init__(self):
        if self.design_wavelength <= 0:
            raise ValueError(f"design wavelength must be positive, got {self.design_wavelength}")
        if self.n_steps is not None and self.n_steps < 1:
            raise ValueError(f"step count must be >= 1, got {self.n_steps}")

    def phase_profile(self, theta: np.ndarray, wavelength: float) -> np.ndarray:
        """Imprinted phase for azimuth theta (radians, any wrap) at wavelength."""
        q = np.mod(theta, TWO_PI)
        if self.n_steps is not None:
            q = np.floor(self.n_steps * q / TWO_PI) * (TWO_PI / self.n_steps)
        return self.design_charge * (self.design_wavelength / wavelength) * q


def apply_spp(field: ComplexFieldGrid, spp: SppSpec) -> ComplexFieldGrid:
    """Multiply by the plate's phase; the amplitude pattern is untouched."""
    phase = spp.phase_profile(field.spec.azimuth(), field.wavelength)
    return field.with_values(field.values * np.exp(1j * phase))


def crystal_charges(spp_charge: int, m5_in: bool) -> tuple[int, int]:
    """(ell_pump, ell_stokes) at the crystal for the two interferometer setups.

    With the balancing mirror in place both arms flip alike, so pump and
    Stokes carry equal charge; without it they carry opposite charges. Only
    the relative sign is physical; the convention here anchors the pump to
    +spp_charge in both configurations.
    """
    return (spp_charge, spp_charge) if m5_in else (spp_charge, -spp_charge)
