#!/usr/bin/env python3
"""Measure the vortex ring-size scaling r ~ sqrt(|ell|) and the growth of
sideband image sizes across orders for opposite seed charges."""

import argparse

import numpy as np

from vortexcascade import (
    BeamParams,
    GridSpec,
    LGModeIndex,
    SidebandLabel,
    lg_mode_field,
    observed_sideband,
    ring_radius,
)
from vortexcascade.units import omega_from_wavenumber_cm, wavelength_from_omega


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=512)
    ap.add_argument("--pitch-um", type=float, default=25.0)
    ap.add_argument("--waist-mm", type=float, default=0.8)
    args = ap.parse_args()

    spec = GridSpec.square(args.grid, args.pitch_um * 1e-6)
    beam = BeamParams(args.waist_mm * 1e-3, 800e-9)

    ells = np.array([1, 2, 3, 4, 6, 9])
    radii = np.array(
        [ring_radius(lg_mode_field(LGModeIndex(0, int(l)), beam, spec)) for l in ells]
    )
    print("ring radius of LG_0^ell:")
    for ell, r in zip(ells, radii):
        print(f"  ell={ell}: {r * 1e3:.4f} mm (analytic {beam.waist_w0 * np.sqrt(ell / 2) * 1e3:.4f} mm)")
    slope = np.polyfit(np.log(ells), np.log(radii), 1)[0]
    print(f"log-log fit slope: {slope:.4f} (square-root law would be 0.5)")

    omega_p = omega_from_wavenumber_cm(12500.0)
    omega_s = omega_from_wavenumber_cm(12500.0 - 320.0)
    pump = lg_mode_field(LGModeIndex(0, 1), BeamParams(1e-3, wavelength_from_omega(omega_p)), spec)
    stokes = lg_mode_field(
        LGModeIndex(0, -1), BeamParams(1e-3, wavelength_from_omega(omega_s)), spec
    )
    print("\nobserved sideband ring radius for ell_p = -ell_s = 1:")
    for k in (1, 2, 3):
        label = SidebandLabel(k)
        r = ring_radius(observed_sideband(pump, stokes, label))
        print(f"  {str(label):>3}: {r * 1e3:.4f} mm")


if __name__ == "__main__":
    main()
