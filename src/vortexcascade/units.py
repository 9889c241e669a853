"""Spectroscopic unit conversions.

Wavelengths in meters, wavenumbers in cm^-1, angular frequencies in rad/s.
"""

import math

C_LIGHT = 299792458.0  # m/s


def omega_from_wavelength(wavelength_m: float) -> float:
    """Angular frequency of light with the given vacuum wavelength."""
    if wavelength_m <= 0:
        raise ValueError(f"wavelength must be positive, got {wavelength_m}")
    return 2.0 * math.pi * C_LIGHT / wavelength_m


def wavelength_from_omega(omega: float) -> float:
    """Vacuum wavelength for the given angular frequency."""
    if omega <= 0:
        raise ValueError(f"angular frequency must be positive, got {omega}")
    return 2.0 * math.pi * C_LIGHT / omega


def omega_from_wavenumber_cm(nu_tilde_cm: float) -> float:
    """Angular frequency for a spectroscopic wavenumber in cm^-1."""
    return 2.0 * math.pi * C_LIGHT * 100.0 * nu_tilde_cm


def frequency_thz_from_omega(omega: float) -> float:
    """Ordinary frequency in THz for an angular frequency."""
    return omega / (2.0 * math.pi) / 1.0e12
