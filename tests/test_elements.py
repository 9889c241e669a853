"""Spiral phase plates and the seed charges at the crystal."""

import math
import warnings

import numpy as np
import pytest

from vortexcascade import (
    BeamParams,
    GridSpec,
    LGModeIndex,
    SppSpec,
    apply_spp,
    crystal_charges,
    decompose,
    gaussian_field,
    lg_mode_field,
)
from vortexcascade.beams import mode_powers_by_ell
from vortexcascade.errors import BasisTruncationWarning
from winding import assert_winding

WL = 800e-9


def beam_and_grid(n=256, pitch=25e-6, w0=1e-3):
    return BeamParams(waist_w0=w0, wavelength=WL), GridSpec.square(n, pitch)


def staircase_coefficient(n_steps, alpha, m, n_theta=400_000):
    """1-D oracle: azimuthal Fourier coefficient c_m of the plate phase.

    alpha is the phase-depth scale (design_wavelength/wavelength); n_steps
    None means the continuous ramp.
    """
    theta = (np.arange(n_theta) + 0.5) * 2.0 * np.pi / n_theta
    if n_steps is None:
        q = theta
    else:
        q = np.floor(n_steps * theta / (2.0 * np.pi)) * (2.0 * np.pi / n_steps)
    return complex(np.mean(np.exp(1j * (alpha * q - m * theta))))


def ell_column_power(field, beam, ell, p_max=10):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BasisTruncationWarning)
        coeffs = decompose(field, beam, p_max=p_max, ell_range=(ell, ell))
    return mode_powers_by_ell(coeffs)[ell]


class TestSpiralPhasePlate:
    def test_continuous_plate_imprints_design_charge(self):
        beam, spec = beam_and_grid()
        g = gaussian_field(beam, spec)
        out = apply_spp(g, SppSpec(design_charge=1, design_wavelength=WL))
        assert_winding(out, 0.8e-3, 1)

    def test_amplitude_untouched(self):
        beam, spec = beam_and_grid()
        g = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        out = apply_spp(g, SppSpec(design_charge=3, design_wavelength=WL, n_steps=16))
        # unit-modulus multiplication: exact up to one ulp
        diff = np.abs(np.abs(out.values) - np.abs(g.values))
        assert float(diff.max()) <= 4 * np.finfo(float).eps * float(np.abs(g.values).max())

    def test_sixteen_step_retention_matches_1d_oracle(self):
        # oracle: |c_1| of the 16-step staircase is sinc(pi/16) = 0.99359,
        # so the ell=1 power ratio versus the continuous plate is its square
        c1 = staircase_coefficient(16, 1.0, 1)
        assert abs(c1) == pytest.approx(math.sin(math.pi / 16) / (math.pi / 16), abs=1e-9)

        beam, spec = beam_and_grid()
        g = gaussian_field(beam, spec)
        cont = apply_spp(g, SppSpec(1, WL))
        step = apply_spp(g, SppSpec(1, WL, n_steps=16))
        p_cont = ell_column_power(cont, beam, 1)
        p_step = ell_column_power(step, beam, 1)
        ratio = p_step / p_cont
        assert math.sqrt(ratio) == pytest.approx(abs(c1), abs=1e-3)
        assert ratio == pytest.approx(abs(c1) ** 2, abs=1e-3)
        assert math.sqrt(ratio) >= 0.99

    def test_step_count_convergence_is_monotone(self):
        beam, spec = beam_and_grid()
        g = gaussian_field(beam, spec)
        cont = ell_column_power(apply_spp(g, SppSpec(1, WL)), beam, 1, p_max=6)
        ratios = []
        for n_steps in (4, 8, 16, 32):
            p = ell_column_power(apply_spp(g, SppSpec(1, WL, n_steps=n_steps)), beam, 1, p_max=6)
            ratios.append(p / cont)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[2] >= 0.98  # N=16 power ratio ~ sinc^2(pi/16) = 0.9872

    def test_wavelength_mismatch_leaks_into_ell0(self):
        # oracle: |c_0|^2 of exp(i*(800/821)*theta) from 1-D quadrature
        alpha = 800.0 / 821.0
        leak_oracle = abs(staircase_coefficient(None, alpha, 0)) ** 2
        assert leak_oracle == pytest.approx(
            (math.sin(math.pi * alpha) / (math.pi * alpha)) ** 2, abs=1e-9
        )

        beam821 = BeamParams(waist_w0=1e-3, wavelength=821e-9)
        spec = GridSpec.square(512, 12.5e-6)
        g = gaussian_field(beam821, spec)
        out = apply_spp(g, SppSpec(design_charge=1, design_wavelength=800e-9))
        leak = ell_column_power(out, beam821, 0, p_max=6)
        assert leak == pytest.approx(leak_oracle, rel=0.02)
        # the beam is still dominantly ell=1
        kept = ell_column_power(out, beam821, 1, p_max=6)
        assert kept > 0.9

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SppSpec(1, -1.0)
        with pytest.raises(ValueError):
            SppSpec(1, WL, n_steps=0)


class TestPathCharge:
    def test_balanced_arms_keep_equal_charges(self):
        ell_p, ell_s = crystal_charges(1, m5_in=True)
        assert ell_p == ell_s

    def test_unbalanced_arms_give_opposite_charges(self):
        ell_p, ell_s = crystal_charges(1, m5_in=False)
        assert ell_p == -ell_s
        assert ell_p == 1
