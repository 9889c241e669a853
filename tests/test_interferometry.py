"""Fork interferogram synthesis and automated charge readout."""

import math

import numpy as np
import pytest

from vortexcascade import (
    BeamParams,
    ComplexFieldGrid,
    GridSpec,
    Interferogram,
    PanelGeometry,
    RamanConfig,
    SidebandLabel,
    add_intensity_noise,
    analyze_order_panel,
    extract_charge,
    fork_fringe_count,
    fringe_visibility,
    gaussian_field,
    lg_mode_field,
    LGModeIndex,
    synthesize_interferogram,
)
from vortexcascade.errors import AliasingError, GridMismatchError, RegionError
from vortexcascade.units import omega_from_wavenumber_cm

WL = 800e-9
N = 256
PITCH = 25e-6
TILT = 32 * WL / (N * PITCH)  # 32 fringes across the frame


def beam_and_grid(w0=0.8e-3):
    return BeamParams(waist_w0=w0, wavelength=WL), GridSpec.square(N, PITCH)


def vortex_gram(ell, tilt=TILT, w0=0.8e-3, ell_ref=0, offset_y=0.0):
    beam, spec = beam_and_grid(w0)
    vortex = lg_mode_field(LGModeIndex(0, ell), beam, spec)
    reference = lg_mode_field(LGModeIndex(0, ell_ref), beam, spec)
    return synthesize_interferogram(vortex, reference, tilt, offset_y)


def plane_field(spec, amplitude=1.0):
    return ComplexFieldGrid(spec, WL, np.full((spec.ny, spec.nx), amplitude, dtype=complex))


class TestSynthesize:
    def test_plane_waves_make_straight_fringes(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec), TILT)
        assert fringe_visibility(gram) == pytest.approx(1.0, abs=1e-9)
        # period lambda/tilt: the spectral peak sits at fringe count 32
        spectrum = np.abs(np.fft.fft2(gram.intensity - gram.intensity.mean()))
        j = int(np.argmax(spectrum[0, : N // 2]))
        assert j == 32

    def test_single_fork_for_unit_charge(self):
        gram = vortex_gram(1)
        assert extract_charge(gram).ell == 1
        assert fork_fringe_count(gram).ell == 1

    def test_charge_two_reference_difference(self):
        # fork carries the charge difference of the two arms
        gram = vortex_gram(1, ell_ref=-1)
        assert extract_charge(gram).ell == 2

    def test_requires_matching_grids(self):
        beam, spec = beam_and_grid()
        other = GridSpec.square(128, PITCH)
        with pytest.raises(GridMismatchError):
            synthesize_interferogram(
                gaussian_field(beam, spec), gaussian_field(beam, other), TILT
            )

    def test_nyquist_guard(self):
        beam, spec = beam_and_grid()
        g = gaussian_field(beam, spec)
        with pytest.raises(AliasingError):
            synthesize_interferogram(g, g, WL / PITCH)

    def test_offset_shifts_reference(self):
        gram0 = vortex_gram(0, offset_y=0.0)
        gram1 = vortex_gram(0, offset_y=20 * PITCH)
        assert not np.array_equal(gram0.intensity, gram1.intensity)
        assert np.array_equal(
            np.roll(gaussian_field(*beam_and_grid()).intensity(), 20, axis=0),
            np.roll(gaussian_field(*beam_and_grid()).intensity(), 20, axis=0),
        )

    def test_intensity_validation(self):
        spec = GridSpec.square(16, 1e-6)
        with pytest.raises(ValueError):
            Interferogram(spec, -np.ones((16, 16)), (0.0, 0.0), WL)


class TestExtractCharge:
    def test_round_trip_all_charges_both_carrier_signs(self):
        for ell in range(-5, 6):
            for tilt in (TILT, -TILT):
                reading = extract_charge(vortex_gram(ell, tilt=tilt))
                assert reading.ell == ell, (ell, tilt)
                assert reading.confidence > 0.5

    def test_reading_is_charge_difference(self):
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert extract_charge(vortex_gram(a, ell_ref=b)).ell == a - b, (a, b)

    @pytest.mark.parametrize("fringes", [12, 24, 40])
    def test_round_trip_across_fringe_band(self, fringes):
        # the readout works across the whole recommended carrier band
        spec = GridSpec.square(512, 25e-6)
        beam = BeamParams(waist_w0=1.6e-3, wavelength=WL)
        tilt = fringes * WL / (512 * 25e-6)
        reference = gaussian_field(beam, spec)
        for ell in (-5, 2, 5):
            vortex = lg_mode_field(LGModeIndex(0, ell), beam, spec)
            gram = synthesize_interferogram(vortex, reference, tilt)
            reading = extract_charge(gram)
            assert reading.ell == ell, (fringes, ell)
            # confidence folds in the fringe visibility on the readout ring
            assert reading.confidence > 0.5, (fringes, ell)

    def test_flipping_carrier_metadata_negates(self):
        gram = vortex_gram(2)
        assert extract_charge(gram).ell == 2
        assert extract_charge(gram.with_carrier_sign_flipped()).ell == -2

    def test_explicit_carrier_overrides_zero_metadata(self):
        gram = vortex_gram(3)
        bare = Interferogram(gram.spec, gram.intensity, (0.0, 0.0), gram.wavelength)
        assert extract_charge(bare, carrier=(TILT, 0.0)).ell == 3
        assert extract_charge(bare, carrier=(-TILT, 0.0)).ell == -3
        # an explicit carrier is held to the same Nyquist limit as metadata
        with pytest.raises(AliasingError):
            extract_charge(bare, carrier=(WL / PITCH, 0.0))

    def test_swapping_arms_negates(self):
        beam, spec = beam_and_grid()
        v = lg_mode_field(LGModeIndex(0, 2), beam, spec)
        r = gaussian_field(beam, spec)
        assert extract_charge(synthesize_interferogram(v, r, TILT)).ell == 2
        assert extract_charge(synthesize_interferogram(r, v, TILT)).ell == -2

    def test_vertical_flip_negates_reading(self):
        # mirror parity: reflecting the pattern about the carrier axis flips
        # the helicity; reflecting along the carrier maps the pattern onto
        # the same-charge pattern, so the reading is invariant
        gram = vortex_gram(3)
        flipped_y = Interferogram(
            gram.spec, gram.intensity[::-1, :], gram.carrier, gram.wavelength
        )
        assert extract_charge(flipped_y).ell == -3
        flipped_x = Interferogram(
            gram.spec, gram.intensity[:, ::-1], gram.carrier, gram.wavelength
        )
        assert extract_charge(flipped_x).ell == 3

    def test_no_reference_reads_zero_with_no_confidence(self):
        beam, spec = beam_and_grid()
        v = lg_mode_field(LGModeIndex(0, 2), beam, spec)
        zero = v.with_values(np.zeros_like(v.values))
        gram = synthesize_interferogram(v, zero, TILT)
        reading = extract_charge(gram)
        assert reading.ell == 0
        assert reading.confidence < 0.1

    def test_flat_image_reads_zero(self):
        spec = GridSpec.square(128, 1.0)
        gram = Interferogram(spec, np.full((128, 128), 0.5), (0.0, 0.0), 1.0)
        reading = extract_charge(gram)
        assert reading.ell == 0
        assert reading.confidence == 0.0

    def test_noise_robust_round_trip(self):
        rng = np.random.default_rng(11)
        fails = 0
        for ell in (-4, -1, 0, 2, 5):
            gram = vortex_gram(ell)
            for _ in range(10):
                noisy = add_intensity_noise(gram, 0.05, rng)
                if extract_charge(noisy).ell != ell:
                    fails += 1
        assert fails == 0

    def test_confidence_low_for_garbage(self):
        rng = np.random.default_rng(3)
        spec = GridSpec.square(128, PITCH)
        noise = rng.random((128, 128))
        gram = Interferogram(spec, noise, (TILT, 0.0), WL)
        assert extract_charge(gram).confidence < 0.5


class TestForkFringeCount:
    def test_matches_circulation_for_small_charges(self):
        for ell in (-2, -1, 1, 2):
            gram = vortex_gram(ell)
            count = fork_fringe_count(gram)
            assert count.ell == ell
            assert count.method == "fork_count"


class TestFringeVisibility:
    def test_equal_amplitudes_unity(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec), TILT)
        assert fringe_visibility(gram) == pytest.approx(1.0, abs=1e-9)

    def test_one_to_three_intensity_ratio(self):
        # oracle: 2*sqrt(I1*I2)/(I1+I2) = 2*sqrt(3)/4 = 0.86603
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(
            plane_field(spec), plane_field(spec, amplitude=math.sqrt(3.0)), TILT
        )
        assert fringe_visibility(gram) == pytest.approx(2.0 * math.sqrt(3.0) / 4.0, abs=1e-9)

    def test_zero_reference_zero_visibility(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec, 0.0), TILT)
        assert fringe_visibility(gram) == pytest.approx(0.0, abs=1e-12)

    def test_small_region_rejected(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec), TILT)
        with pytest.raises(RegionError):
            fringe_visibility(gram, region=((0, 4), (0, 4)))


def panel_config(ell_p, ell_s, max_as=2, max_s=2):
    pump_cm, shift_cm = 12500.0, 320.0
    return RamanConfig(
        omega_p=omega_from_wavenumber_cm(pump_cm),
        omega_s=omega_from_wavenumber_cm(pump_cm - shift_cm),
        ell_p=ell_p,
        ell_s=ell_s,
        omega_raman=omega_from_wavenumber_cm(shift_cm),
        max_as=max_as,
        max_s=max_s,
    )


ORDERS = [SidebandLabel.from_ladder_index(k) for k in (3, 2, 1, 0, -1, -2)]


class TestOrderPanel:
    def geometry(self, **kw):
        return PanelGeometry(spec=GridSpec.square(256, 50e-6), waist=1e-3, **kw)

    def test_balanced_arms_read_all_plus_one(self):
        results = analyze_order_panel(panel_config(1, 1), self.geometry(), ORDERS)
        assert [r.reading.ell for r in results] == [1, 1, 1, 1, 1, 1]

    def test_unbalanced_arms_read_odd_ladder(self):
        results = analyze_order_panel(panel_config(1, -1), self.geometry(), ORDERS)
        assert [r.reading.ell for r in results] == [5, 3, 1, -1, -3, -5]

    def test_zero_charges_read_zero(self):
        results = analyze_order_panel(panel_config(0, 0), self.geometry(), ORDERS)
        assert [r.reading.ell for r in results] == [0, 0, 0, 0, 0, 0]

    def test_per_order_errors_do_not_abort_others(self):
        # S39 has negative ladder frequency for these seeds
        orders = [SidebandLabel.anti_stokes(1), SidebandLabel.stokes_order(39)]
        results = analyze_order_panel(panel_config(1, -1), self.geometry(), orders)
        assert results[0].ok and results[0].reading.ell == 3
        assert not results[1].ok
        assert "error" in results[1].status

    def test_noise_does_not_break_readings(self):
        geometry = self.geometry(noise_fraction=0.05, seed=42)
        results = analyze_order_panel(panel_config(1, -1), geometry, ORDERS)
        assert [r.reading.ell for r in results] == [5, 3, 1, -1, -3, -5]

    def test_results_preserve_requested_order_and_images(self):
        results = analyze_order_panel(panel_config(1, -1), self.geometry(), ORDERS)
        assert [r.label for r in results] == ORDERS
        for r in results:
            assert r.beam_intensity.shape == (256, 256)
            assert isinstance(r.interferogram, Interferogram)
