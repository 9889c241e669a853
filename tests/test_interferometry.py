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
from vortexcascade.interferometry import _demodulate, _gaussian_filter, detect_carrier
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


def full_frame_demodulate(gram, carrier, rows, cols):
    """The full-frame demodulation the cropped one replaced, at fine positions.

    FFT of the whole frame, raised-cosine windows of radius |carrier|/2
    around the carrier and DC, carrier removed on the fine coordinates. The
    inverse transform is summed as a Fourier series at the given (possibly
    fractional) row and column positions; at integer positions it is ifft2.
    """
    spec = gram.spec
    fx_c = carrier[0] / gram.wavelength
    fy_c = carrier[1] / gram.wavelength
    cbx = fx_c * spec.nx * spec.dx
    cby = fy_c * spec.ny * spec.dy
    r_mask = 0.5 * math.hypot(cbx, cby)
    F = np.fft.fft2(gram.intensity)
    bx = np.fft.fftfreq(spec.nx) * spec.nx
    by = np.fft.fftfreq(spec.ny) * spec.ny
    bxg, byg = np.meshgrid(bx, by)

    def window(cx, cy):
        dist = np.hypot(bxg - cx, byg - cy)
        w = 0.5 * (1.0 + np.cos(np.pi * np.minimum(dist / r_mask, 1.0)))
        return np.where(dist <= r_mask, w, 0.0)

    ey = np.exp(2j * np.pi * np.outer(rows, by) / spec.ny)
    ex = np.exp(2j * np.pi * np.outer(cols, bx) / spec.nx)

    def inverse(spectrum):
        return ey @ spectrum @ ex.T / (spec.nx * spec.ny)

    xx, yy = np.meshgrid((cols - spec.nx // 2) * spec.dx, (rows - spec.ny // 2) * spec.dy)
    D = inverse(F * window(cbx, cby)) * np.exp(-2j * np.pi * (fx_c * xx + fy_c * yy))
    i_lp = inverse(F * window(0.0, 0.0)).real
    return D, i_lp


def full_spectrum_detect_carrier(gram, sign_hint=1):
    """Carrier detection as it was on the full fft2 of the mean-free frame."""
    intensity = gram.intensity
    ny, nx = intensity.shape
    spectrum = np.abs(np.fft.fft2(intensity - intensity.mean()))
    bxg, byg = np.meshgrid(np.fft.fftfreq(nx) * nx, np.fft.fftfreq(ny) * ny)
    rr_bins = np.hypot(bxg, byg)
    r_idx = np.minimum(np.round(rr_bins).astype(int), min(nx, ny) // 2)
    profile = np.zeros(min(nx, ny) // 2 + 1)
    np.maximum.at(profile, r_idx.ravel(), spectrum.ravel())
    ref = float(np.max(profile[1:4]))
    if ref <= 0:
        return None
    quiet = profile < 0.05 * ref
    r_dc = None
    for r in range(2, quiet.size - 2):
        if quiet[r] and quiet[r + 1] and quiet[r + 2]:
            r_dc = r
            break
    if r_dc is None:
        return None
    band = (rr_bins >= r_dc) & ((bxg > 0) | ((bxg == 0) & (byg > 0)))
    if not np.any(band):
        return None
    peak_val = float(np.max(spectrum[band]))
    noise_floor = float(np.median(spectrum[band]))
    if peak_val <= 0 or (noise_floor > 0 and peak_val < 10.0 * noise_floor):
        return None
    weight = np.where(band, spectrum**2, 0.0)
    total = float(np.sum(weight))
    fx = float(np.sum(bxg * weight) / total) / (nx * gram.spec.dx)
    fy = float(np.sum(byg * weight) / total) / (ny * gram.spec.dy)
    if sign_hint < 0:
        fx, fy = -fx, -fy
    return (fx * gram.wavelength, fy * gram.wavelength)


class TestDemodulate:
    @pytest.mark.parametrize(
        "ny, nx, bins, m",
        [
            (64, 64, (8.0, 0.0), (16, 16)),
            (64, 64, (-8.0, 0.0), (16, 16)),
            (64, 64, (7.3, 2.6), (16, 16)),  # fractional-bin carrier
            (64, 64, (-7.3, -2.6), (16, 16)),
            (64, 128, (16.4, -3.0), (64, 64)),  # non-square
            (128, 64, (5.0, 9.2), (32, 32)),
            (256, 256, (32.0, 0.0), (64, 64)),
            (512, 512, (-32.0, 0.0), (64, 64)),
            (45, 45, (8.0, 0.0), (16, 16)),  # odd: coarse samples between fine ones
            (33, 45, (-6.5, 2.2), (16, 16)),
            (25, 25, (10.0, 0.0), (25, 25)),  # odd, crop = whole frame
            (32, 32, (-12.0, 3.0), (32, 32)),  # crop = whole frame
        ],
    )
    def test_matches_full_frame_at_coarse_samples(self, ny, nx, bins, m):
        # oracle: the cropped D and I_lowpass are the full-frame ones sampled
        # at the coarse grid's positions, to rounding
        rng = np.random.default_rng(nx * 1000 + ny)
        spec = GridSpec(nx=nx, ny=ny, dx=20e-6, dy=30e-6)
        gram = Interferogram(spec, 1.0 + rng.random((ny, nx)), (0.0, 0.0), WL)
        carrier = (bins[0] * WL / spec.extent_x, bins[1] * WL / spec.extent_y)
        D, i_lp, coarse = _demodulate(gram, carrier)
        assert (coarse.ny, coarse.nx) == m
        assert coarse.dx == pytest.approx(spec.dx * nx / m[1], rel=1e-15)
        assert coarse.dy == pytest.approx(spec.dy * ny / m[0], rel=1e-15)
        rows = coarse.y / spec.dy + ny // 2
        cols = coarse.x / spec.dx + nx // 2
        D_ref, i_ref = full_frame_demodulate(gram, carrier, rows, cols)
        assert np.max(np.abs(D - D_ref)) <= 1e-12 * np.max(np.abs(D_ref))
        assert np.max(np.abs(i_lp - i_ref)) <= 1e-12 * np.max(np.abs(i_ref))

    def test_carrier_detection_matches_full_spectrum(self):
        # oracle: the old search over the full fft2; the half spectrum holds
        # the same bins, so only the rounding of the transform and of the
        # centroid sums may differ
        rng = np.random.default_rng(8)
        checked = 0
        for n, w0 in ((256, 0.8e-3), (512, 1.6e-3)):
            spec = GridSpec.square(n, PITCH)
            beam = BeamParams(waist_w0=w0, wavelength=WL)
            reference = gaussian_field(beam, spec)
            for ell in (-4, 0, 3):
                vortex = lg_mode_field(LGModeIndex(0, ell), beam, spec)
                for sign in (1, -1):
                    tilt = sign * 32 * WL / (n * PITCH)
                    clean = synthesize_interferogram(vortex, reference, tilt)
                    for noise in (0.0, 0.05):
                        gram = add_intensity_noise(clean, noise, rng)
                        bare = Interferogram(spec, gram.intensity, (0.0, 0.0), WL)
                        for hint in (1, -1):
                            got = detect_carrier(bare, hint)
                            expect = full_spectrum_detect_carrier(bare, hint)
                            scale = math.hypot(*expect)
                            assert got[0] == pytest.approx(expect[0], rel=0, abs=1e-12 * scale)
                            assert got[1] == pytest.approx(expect[1], rel=0, abs=1e-12 * scale)
                            checked += 1
        assert checked == 48
        flat = Interferogram(GridSpec.square(128, 1.0), np.full((128, 128), 0.5), (0.0, 0.0), 1.0)
        assert detect_carrier(flat) is None
        assert full_spectrum_detect_carrier(flat) is None


class TestGaussianFilter:
    @pytest.mark.parametrize("shape", [(5, 9), (8, 8), (8, 11), (64, 64)])
    @pytest.mark.parametrize("sigma", [1.0, 3.0, 8.0])
    def test_matches_scipy(self, shape, sigma):
        # oracle: scipy's gaussian_filter (reflect edges, truncate 4), which
        # _core_candidates used to call; sigma 3 and 8 pad beyond the frame
        ndimage = pytest.importorskip("scipy.ndimage")
        a = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
        expect = ndimage.gaussian_filter(a, sigma=sigma)
        assert np.max(np.abs(_gaussian_filter(a, sigma) - expect)) <= 1e-14


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

    def test_region_between_coarse_samples_rejected(self):
        # the 32-fringe carrier is demodulated on a 64x64 grid, one sample
        # every 4 rows: a one-row region at row 101 holds none of them
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec), TILT)
        assert fringe_visibility(gram, region=((100, 101), (0, N))) == pytest.approx(1.0)
        with pytest.raises(RegionError):
            fringe_visibility(gram, region=((101, 102), (0, N)))


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
            assert isinstance(r.fork_intensity, np.ndarray)
            assert r.fork_intensity.shape == (256, 256)
            assert np.all(np.isfinite(r.fork_intensity))
            assert np.all(r.fork_intensity >= 0)
