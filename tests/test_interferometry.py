"""Fork interferogram synthesis and automated charge readout."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from vortexcascade import (
    BeamParams,
    ChargeReading,
    ComplexFieldGrid,
    GridSpec,
    Interferogram,
    PanelGeometry,
    RamanConfig,
    SidebandLabel,
    add_intensity_noise,
    analyze_order_panel,
    extract_charge,
    gaussian_field,
    lg_mode_field,
    LGModeIndex,
    sideband_charge,
    synthesize_interferogram,
)
from vortexcascade import interferometry
from vortexcascade.config import load_config
from vortexcascade.pgmio import read_pgm16, write_pgm16
from vortexcascade.errors import AliasingError, GridMismatchError
from vortexcascade.beams import (
    azimuthal_profile,
    loop_sample_count,
    radial_intensity_profile,
    sample_at_angles,
)
from vortexcascade.interferometry import (
    _below_tenfold_median,
    _demodulate,
    _gaussian_filter,
    _windings_on_circles,
    _wrap,
    detect_carrier,
)
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


def demodulated_visibility(gram):
    """Median of 2|D|/I_lowpass over the demodulated grid: the fringe
    visibility that extract_charge's confidence reads on its ring band."""
    D, i_lp, _ = _demodulate(gram, gram.carrier)
    good = i_lp > 1e-12 * float(np.max(i_lp))
    return float(np.median(2.0 * np.abs(D[good]) / i_lp[good]))


class TestSynthesize:
    def test_plane_waves_make_straight_fringes(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec), TILT)
        assert demodulated_visibility(gram) == pytest.approx(1.0, abs=1e-9)
        # period lambda/tilt: the spectral peak sits at fringe count 32
        spectrum = np.abs(np.fft.fft2(gram.intensity - gram.intensity.mean()))
        j = int(np.argmax(spectrum[0, : N // 2]))
        assert j == 32

    def test_single_fork_for_unit_charge(self):
        gram = vortex_gram(1)
        assert extract_charge(gram).ell == 1

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

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "intensity must be finite"),
        (np.inf, "intensity must be finite"),
        (-np.inf, "intensity must be finite"),
        (-1e-300, "intensity must be non-negative"),
    ])
    @pytest.mark.parametrize("adopt", [False, True])
    def test_validation_messages(self, bad, message, adopt):
        values = np.ones((16, 16))
        values[3, 5] = bad
        values[9, 1] = -1.0 if message.endswith("finite") else 1.0  # finite is checked first
        with pytest.raises(ValueError, match=f"^{message}$"):
            Interferogram(GridSpec.square(16, 1e-6), values, (0.0, 0.0), WL, adopt=adopt)

    def test_intensity_copied_unless_adopted(self):
        spec = GridSpec.square(16, 1e-6)
        held = np.ones((16, 16))
        gram = Interferogram(spec, held, (0.0, 0.0), WL)
        held[0, 0] = 5.0  # the caller's array stays its own
        assert gram.intensity[0, 0] == 1.0 and not gram.intensity.flags.writeable
        # adopted: no copy, and the caller's reference is frozen with it
        fresh = np.ones((16, 16))
        adopted = Interferogram(spec, fresh, (0.0, 0.0), WL, adopt=True)
        assert adopted.intensity is fresh
        with pytest.raises(ValueError, match="read-only"):
            fresh[0, 0] = 5.0
        # only a float64 array is adopted; anything else is converted
        ints = np.ones((16, 16), dtype=np.int64)
        assert Interferogram(spec, ints, (0.0, 0.0), WL, adopt=True).intensity.dtype == np.float64


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
        cx, cy = gram.carrier
        assert extract_charge(replace(gram, carrier=(-cx, -cy))).ell == -2

    def test_explicit_carrier_overrides_zero_metadata(self):
        gram = vortex_gram(3)
        bare = Interferogram(gram.spec, gram.intensity, (0.0, 0.0), gram.wavelength)
        assert extract_charge(replace(bare, carrier=(TILT, 0.0))).ell == 3
        assert extract_charge(replace(bare, carrier=(-TILT, 0.0))).ell == -3
        # a carrier put in the metadata is held to the Nyquist limit
        with pytest.raises(AliasingError):
            replace(bare, carrier=(WL / PITCH, 0.0))

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
        flat = Interferogram(spec, np.full((128, 128), 0.5), (0.0, 0.0), 1.0)
        # a charge-0 fork scaled to 1e-170 has no singular cell, and its
        # centroid weights env**2 underflow to 0: no core candidate at all
        fork = vortex_gram(0)
        faint = replace(fork, intensity=fork.intensity * 1e-170)
        for gram in (flat, faint):
            assert extract_charge(gram) == ChargeReading(0, 0.0)

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

    def test_first_agreeing_core_ends_the_search(self, monkeypatch):
        # a clean fork's first core already has agreeing circles, so no later
        # core is computed: one ring radius
        calls = {}
        for name in ("_signal_ring_radius", "_gaussian_filter"):
            def counted(*args, _name=name, _f=getattr(interferometry, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(interferometry, name, counted)
        for ell in (0, 3, -5):
            calls.update(_signal_ring_radius=0, _gaussian_filter=0)
            assert extract_charge(vortex_gram(ell)).ell == ell
            assert calls == {"_signal_ring_radius": 1, "_gaussian_filter": 1}, ell

    @pytest.mark.parametrize("ell,sign,hint", [(-9, 1, 1), (9, -1, -1)])
    def test_no_agreeing_core_reads_at_zero_confidence(self, monkeypatch, ell, sign, hint):
        # a charge of 9 on a 16-fringe carrier: neither the cluster's nor the
        # centroid's circles agree, so the reading has no confidence, and the
        # 32 x 32 crop's envelope is smoothed once, at sigma 3, for both cores
        sigmas = []

        def counted(*args, _f=interferometry._gaussian_filter):
            sigmas.append(args[1])
            return _f(*args)

        monkeypatch.setattr(interferometry, "_gaussian_filter", counted)
        gram = vortex_gram(ell, tilt=sign * 16 * WL / (N * PITCH), w0=0.5e-3)
        assert extract_charge(bare(gram.intensity, gram.spec, WL), hint).confidence == 0.0
        assert sigmas == [3.0]

    def test_windings_are_whole_turns(self, monkeypatch, sweep_frames):
        # the premise of reading whole turns: a closed loop's wrapped
        # differences telescope, so every winding is an integer to rounding
        windings = []

        def recorded(*args, _f=interferometry._windings_on_circles):
            got = _f(*args)
            windings.extend(got)
            return got

        monkeypatch.setattr(interferometry, "_windings_on_circles", recorded)
        for _, _, _, gram in sweep_frames:
            extract_charge(gram)
        assert len(windings) >= 3 * len(sweep_frames)
        assert max(abs(w - round(w)) for w in windings) <= 1e-12


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


def peak_disc_carrier(full, gram, sign_hint=1):
    """detect_carrier's estimator written plainly on a whole |F| plane.

    full is |F| on every bin of the frame in FFT order. The radial
    max-profile, the band and the np.median gate cover the whole plane; the
    band's power, zero elsewhere, is summed over POOL x POOL blocks of the
    columns bx = 0 .. nx//2 by zero-padding and reshaping; the centroid of
    the power above the floor covers every bin of the plane within |p|/2 of
    the peak p, outside the baseband lobe and off the Nyquist column.
    """
    ny, nx = full.shape
    bxg, byg = np.meshgrid(np.rint(np.fft.fftfreq(nx) * nx), np.rint(np.fft.fftfreq(ny) * ny))
    r2 = bxg**2 + byg**2
    r_idx = np.minimum(np.round(np.sqrt(r2)).astype(int), min(nx, ny) // 2)
    profile = np.zeros(min(nx, ny) // 2 + 1)
    np.maximum.at(profile, r_idx.ravel(), full.ravel())
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
    band = (r2 >= r_dc**2) & ((bxg > 0) | ((bxg == 0) & (byg > 0)))
    if not np.any(band):
        return None
    peak_val = float(np.max(full[band]))
    if peak_val <= 0 or peak_val < 10.0 * float(np.median(full[band])):
        return None
    k = interferometry.POOL
    half = np.where(band, full**2, 0.0)[:, : nx // 2 + 1]
    padded = np.zeros((-(-ny // k) * k, -(-half.shape[1] // k) * k))
    padded[:ny, : half.shape[1]] = half
    pooled = padded.reshape(padded.shape[0] // k, k, padded.shape[1] // k, k).sum(axis=(1, 3))
    iy, ix = np.unravel_index(np.argmax(pooled), pooled.shape)
    block = padded[iy * k : (iy + 1) * k, ix * k : (ix + 1) * k]
    jy, jx = np.unravel_index(np.argmax(block), block.shape)
    py, px = byg[iy * k + jy, 0], bxg[0, ix * k + jx]
    floor = float(np.median(pooled)) / k**2
    inside = (4 * ((bxg - px) ** 2 + (byg - py) ** 2) <= px**2 + py**2) & (r2 >= r_dc**2)
    weight = np.where(inside & (2 * np.abs(bxg) < nx), full**2 - floor, 0.0)
    total = float(np.sum(weight))
    if total <= 0:
        return None
    fx = float(np.sum(bxg * weight) / total) / (nx * gram.spec.dx)
    fy = float(np.sum(byg * weight) / total) / (ny * gram.spec.dy)
    if sign_hint < 0:
        fx, fy = -fx, -fy
    return (fx * gram.wavelength, fy * gram.wavelength)


def full_spectrum_detect_carrier(gram, sign_hint=1):
    """peak_disc_carrier on the full fft2 of the mean-free frame."""
    intensity = gram.intensity
    return peak_disc_carrier(np.abs(np.fft.fft2(intensity - intensity.mean())), gram, sign_hint)


def assert_carriers_close(got, expect, tol):
    """Both None, or equal angles to tol times the expected carrier's magnitude."""
    if expect is None:
        assert got is None
        return
    scale = math.hypot(*expect)
    assert got is not None
    assert abs(got[0] - expect[0]) <= tol * scale and abs(got[1] - expect[1]) <= tol * scale, (
        got,
        expect,
    )


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
            (256, 256, (32.4, 0.3), (64, 64)),  # crop from the nearest bin, window fractional
            (512, 512, (-31.6, -0.4), (64, 64)),
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
        assert coarse.dx == pytest.approx(spec.dx * nx / m[1], rel=1e-15, abs=0.0)
        assert coarse.dy == pytest.approx(spec.dy * ny / m[0], rel=1e-15, abs=0.0)
        rows = coarse.y / spec.dy + ny // 2
        cols = coarse.x / spec.dx + nx // 2
        D_ref, i_ref = full_frame_demodulate(gram, carrier, rows, cols)
        assert np.max(np.abs(D - D_ref)) <= 1e-12 * np.max(np.abs(D_ref))
        assert np.max(np.abs(i_lp - i_ref)) <= 1e-12 * np.max(np.abs(i_ref))

    @pytest.mark.parametrize(
        "bins, m",
        [
            (32.000002, 64),  # a detected carrier a hair past 32 bins
            (31.999999999999996, 64),  # figure3's metadata carriers
            (32.0, 64),
            (32.49, 64),
            (32.51, 128),
            (63.99999999999999, 128),
            (64.0, 128),
        ],
    )
    def test_crop_follows_nearest_integer_bin(self, bins, m):
        spec = GridSpec.square(512, PITCH)
        gram = Interferogram(spec, np.ones((512, 512)), (0.0, 0.0), WL)
        assert _demodulate(gram, (bins * WL / spec.extent_x, 0.0))[2].nx == m

    def test_carrier_detection_matches_full_spectrum(self):
        # oracle: the estimator written plainly on the full fft2; the half
        # spectrum holds the same bins, so only the rounding of the transform
        # and of the pooled and centroid sums may differ
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
                            expect = full_spectrum_detect_carrier(bare, hint)
                            assert expect is not None
                            assert_carriers_close(detect_carrier(bare, hint), expect, 1e-12)
                            checked += 1
        assert checked == 48
        flat = Interferogram(GridSpec.square(128, 1.0), np.full((128, 128), 0.5), (0.0, 0.0), 1.0)
        assert detect_carrier(flat) is None
        assert full_spectrum_detect_carrier(flat) is None


def whole_half_plane_detect_carrier(gram, sign_hint=1):
    """peak_disc_carrier on the half spectrum detect_carrier reads, with the
    bins at negative fx filled in as the mirrors of their conjugates."""
    half = np.abs(gram.half_spectrum)
    ny, nx = gram.intensity.shape
    full = np.empty((ny, nx))
    full[:, : half.shape[1]] = half
    neg = np.arange(half.shape[1], nx)  # columns of bx = j - nx < 0
    full[:, neg] = half[np.ix_(-interferometry._fft_order(ny) % ny, nx - neg)]
    return peak_disc_carrier(full, gram, sign_hint)


def single_circle_winding(values, spec, center_xy, radius):
    """One circle's winding as it was before circles were batched: its own
    circle's sample_at_angles call and np.mod wrapping."""
    n = loop_sample_count(spec, radius)
    ang = 2.0 * math.pi * np.arange(n) / n
    ph = np.angle(sample_at_angles(values, spec, radius, ang, center_xy))
    d = np.mod(np.diff(ph, append=ph[:1]) + math.pi, 2.0 * math.pi) - math.pi
    return float(np.sum(d) / (2.0 * math.pi))


def separate_signal_ring_radius(env, spec, center_xy):
    """_signal_ring_radius as it was before it shared azimuthal_profile:
    its own bincounts about the core, out to 0.45 of the frame. Returns the
    radius and the profile."""
    r = np.hypot(spec.x[None, :] - center_xy[0], spec.y[:, None] - center_xy[1])
    dr = max(spec.dx, spec.dy)
    idx = (r / dr).astype(np.int64)
    nbins = int(0.45 * min(spec.extent_x, spec.extent_y) / dr)
    counts = np.bincount(idx.ravel(), minlength=nbins)[:nbins]
    sums = np.bincount(idx.ravel(), weights=env.ravel(), minlength=nbins)[:nbins]
    prof = sums / np.maximum(counts, 1)
    j = int(np.argmax(prof))
    return max((j + 0.5) * dr, 4.0 * dr), prof


def separate_radial_intensity_profile(field):
    """radial_intensity_profile as it was before it shared azimuthal_profile:
    bincounts of the meshgrid radii, cut to the annuli inside the aperture."""
    spec = field.spec
    dr = max(spec.dx, spec.dy)
    xx, yy = np.meshgrid(spec.x, spec.y)
    idx = (np.hypot(xx, yy) / dr).astype(np.int64)
    weights = field.intensity()
    counts = np.bincount(idx.ravel())
    sums = np.bincount(idx.ravel(), weights=weights.ravel())
    r_full = min(spec.extent_x, spec.extent_y) / 2.0
    n_full = max(2, int(r_full / dr) - 1)
    n_full = min(n_full, counts.size)
    prof = sums[:n_full] / np.maximum(counts[:n_full], 1)
    centers = (np.arange(n_full) + 0.5) * dr
    return centers, prof


def same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def whole_crop_demodulate(gram, carrier):
    """_demodulate as it was before its window skipped the bins outside
    r_mask: hypot and cosine on every bin of the crop, both mirror gathers.
    The crop follows the carrier's nearest integer bin, as _demodulate's does."""
    spec = gram.spec
    cbx = carrier[0] / gram.wavelength * spec.nx * spec.dx
    cby = carrier[1] / gram.wavelength * spec.ny * spec.dy
    r_mask = 0.5 * math.hypot(cbx, cby)
    crop = 1 << math.ceil(math.log2(2.0 * math.hypot(round(cbx), round(cby))))
    mx, my = min(spec.nx, crop), min(spec.ny, crop)
    half = gram.half_spectrum

    def band(cx, cy):
        bx, sx, rx = interferometry._crop_axis(spec.nx, mx, cx)
        by, sy, ry = interferometry._crop_axis(spec.ny, my, cy)
        dist = np.hypot(bx[None, :] - cx, by[:, None] - cy)
        w = 0.5 * (1.0 + np.cos(np.pi * np.minimum(dist / r_mask, 1.0)))
        w = np.where(dist <= r_mask, w, 0.0)
        cols = np.abs(bx)
        patch = np.where(
            bx[None, :] >= 0,
            half[np.ix_(by % spec.ny, cols)],
            np.conj(half[np.ix_(-by % spec.ny, cols)]),
        )
        side = np.fft.ifft2(patch * w * (sy[:, None] * sx[None, :]))
        return side * (ry[:, None] * rx[None, :])

    return band(cbx, cby), band(0.0, 0.0).real


def whole_grid_singular_cluster(D, env, spec):
    """The first core candidate as it was found before its cluster search
    was boxed (hypot distances to every cell of the grid), and the number of
    singular cells exactly 5 cells from the strongest; None without one."""
    local = _gaussian_filter(env, max(3.0, min(spec.nx, spec.ny) / 64.0))
    xx, yy = np.meshgrid(spec.x, spec.y)
    central = np.hypot(xx, yy) <= 0.35 * min(spec.extent_x, spec.extent_y)
    wind = interferometry._plaquette_winding(np.angle(D))
    cell_local = local[:-1, :-1]
    singular = (np.abs(wind) > math.pi) & central[:-1, :-1] & (
        cell_local >= 0.05 * float(local.max())
    )
    if not np.any(singular):
        return None
    weight = np.where(singular, cell_local, -np.inf)
    iy, ix = np.unravel_index(int(np.argmax(weight)), weight.shape)
    cyy, cxx = np.mgrid[0 : wind.shape[0], 0 : wind.shape[1]]
    near = singular & (np.hypot(cxx - ix, cyy - iy) <= 5.0)
    w = np.abs(wind)[near] * np.maximum(cell_local[near], 0.0)
    fx, fy = float(ix), float(iy)
    if float(np.sum(w)) > 0:
        fx = float(np.sum(cxx[near] * w) / np.sum(w))
        fy = float(np.sum(cyy[near] * w) / np.sum(w))
    at_five = int(np.count_nonzero(singular & (np.hypot(cxx - ix, cyy - iy) == 5.0)))
    return ((fx + 0.5 - spec.nx // 2) * spec.dx, (fy + 0.5 - spec.ny // 2) * spec.dy), at_five


def fork_sweep(rng, noises, grids=((256, 0.8e-3), (512, 1.6e-3))):
    """The frames of the readout benchmark: 32 fringes, ell -5..5, both tilt
    signs, each noise fraction; yields (ell, tilt sign, noise, frame)."""
    for n, w0 in grids:
        spec = GridSpec.square(n, PITCH)
        beam = BeamParams(waist_w0=w0, wavelength=WL)
        reference = gaussian_field(beam, spec)
        for ell in range(-5, 6):
            vortex = lg_mode_field(LGModeIndex(0, ell), beam, spec)
            for sign in (1, -1):
                clean = synthesize_interferogram(vortex, reference, sign * 32 * WL / (n * PITCH))
                for noise in noises:
                    yield ell, sign, noise, add_intensity_noise(clean, noise, rng)


@pytest.fixture(scope="module")
def sweep_frames():
    """fork_sweep at noise 0, 2% and 5%, as bare frames on their own grid."""
    rng = np.random.default_rng(9)
    return [
        (ell, sign, noise, bare(gram.intensity, gram.spec, WL))
        for ell, sign, noise, gram in fork_sweep(rng, (0.0, 0.02, 0.05))
    ]


def bare(intensity, spec=None, wavelength=1.0):
    """A frame without carrier metadata; unit pitch and wavelength, as the
    analyze command reads an image, unless given."""
    ny, nx = intensity.shape
    spec = spec or GridSpec(nx=nx, ny=ny, dx=1.0, dy=1.0)
    return Interferogram(spec, intensity, (0.0, 0.0), wavelength)


class TestExactReadoutKernels:
    """The readout kernels return exactly what the code they replaced did;
    carrier detection returns what its plain whole-plane version does, to
    the rounding of its sums."""

    def assert_same_carrier(self, gram):
        # the same |F| values and the same gate; only the order of the
        # pooled and centroid sums differs
        for hint in (1, -1):
            expect = whole_half_plane_detect_carrier(gram, hint)
            assert_carriers_close(detect_carrier(gram, hint), expect, 1e-12)

    def test_carrier_sweep_equals_whole_half_plane_search(self, sweep_frames):
        found = 0
        for _, _, _, gram in sweep_frames:
            self.assert_same_carrier(gram)
            found += detect_carrier(gram) is not None
        assert found == 132

    def test_lobe_past_the_first_box(self):
        # a narrow beam's baseband lobe reaches past radius 14 bins, so the
        # 16-bin box cannot end the walk; on 64 x 64 the next box is the
        # whole half spectrum (r_max = 32)
        for n in (64, 256):
            spec = GridSpec.square(n, PITCH)
            beam = BeamParams(waist_w0=0.1e-3, wavelength=WL)
            gram = synthesize_interferogram(
                lg_mode_field(LGModeIndex(0, 2), beam, spec), gaussian_field(beam, spec),
                (n / 4) * WL / (n * PITCH),
            )
            spectrum = np.abs(gram.half_spectrum)
            assert interferometry._dc_radius(spectrum, n, n) > 14
            self.assert_same_carrier(bare(gram.intensity, spec, WL))

    def test_spectrum_that_never_quiets(self):
        # white noise: the walk runs through every box and the whole half
        # spectrum, then gives up
        rng = np.random.default_rng(4)
        for shape in ((64, 64), (256, 256), (40, 72)):
            gram = bare(rng.random(shape))
            assert interferometry._dc_radius(np.abs(gram.half_spectrum), shape[1], shape[0]) is None
            assert detect_carrier(gram) is None
            self.assert_same_carrier(gram)

    @pytest.mark.parametrize("ny, nx", [(45, 45), (33, 45), (64, 128), (128, 64), (255, 257), (8, 8)])
    def test_odd_non_square_and_tiny_frames(self, ny, nx):
        rng = np.random.default_rng(ny * 1000 + nx)
        y, x = np.mgrid[0:ny, 0:nx]
        envelope = np.exp(-((x - nx / 2) ** 2 / nx**2 + (y - ny / 2) ** 2 / ny**2) * 8.0)
        fringes = 1.0 + np.cos(2 * np.pi * (x * 0.23 + y * 0.07) + 0.3)
        for noise in (0.0, 0.05):
            self.assert_same_carrier(bare(envelope * fringes + noise * rng.random((ny, nx))))

    @pytest.mark.parametrize("fx, fy", [(0.02, 0.23), (0.02, -0.23), (0.0, 0.2), (-0.03, 0.21)])
    def test_disc_across_the_fy_axis(self, fx, fy):
        # near-vertical fringes: the disc around the sideband reaches bins at
        # fx <= 0, which the half spectrum holds only as mirrors
        n = 128
        rng = np.random.default_rng(int(1000 * (fx + fy)) % 97)
        y, x = np.mgrid[0:n, 0:n]
        envelope = np.exp(-((x - n / 2) ** 2 + (y - n / 2) ** 2) / (0.08 * n * n))
        frame = envelope * (1.0 + np.cos(2 * np.pi * (fx * x + fy * y))) + 0.02 * rng.random((n, n))
        gram = bare(frame)
        self.assert_same_carrier(gram)
        truth = np.array([fx, fy]) * n * (1 if fx > 0 or (fx == 0 and fy > 0) else -1)
        assert math.hypot(*(np.array(detect_carrier(gram)) * n - truth)) < 0.05

    def test_disc_reaching_into_the_lobe(self):
        # a bright 2.5-pixel spot widens the baseband lobe past 16 bins, so
        # the disc of radius 16 around the 32-bin carrier overlaps it; the
        # lobe's bins are out of the band and must stay out of the centroid
        n = 128
        y, x = np.mgrid[0:n, 0:n] - n / 2
        spot = 150.0 * np.exp(-(x**2 + y**2) / (2 * 2.5**2))
        fringes = np.exp(-(x**2 + y**2) / (2 * 30.0**2)) * (1 + np.cos(2 * np.pi * 0.25 * x))
        frame = spot + fringes
        gram = bare(frame + 0.02 * frame.max() * np.random.default_rng(3).random((n, n)))
        assert interferometry._dc_radius(np.abs(gram.half_spectrum), n, n) > 16
        self.assert_same_carrier(gram)

    def test_demodulation_and_cluster_equal_whole_grid_versions(self):
        # noisy frames demodulated at their detected carrier (64 crops) and
        # at explicit carriers 1.5 and 3 times as far out, off-axis (128 and
        # 256 crops), and random fields whose phase defects put singular
        # cells at every distance from the strongest one, exactly 5 included
        rng = np.random.default_rng(12)
        fields, crops = [], set()
        for n, w0 in ((256, 0.8e-3), (512, 1.6e-3)):
            spec = GridSpec.square(n, PITCH)
            beam = BeamParams(waist_w0=w0, wavelength=WL)
            reference = gaussian_field(beam, spec)
            for ell in (-5, -2, 0, 1, 4):
                vortex = lg_mode_field(LGModeIndex(0, ell), beam, spec)
                clean = synthesize_interferogram(vortex, reference, 32 * WL / (n * PITCH))
                for noise in (0.0, 0.05):
                    gram = bare(add_intensity_noise(clean, noise, rng).intensity, spec, WL)
                    found = detect_carrier(gram)
                    for carrier in (found, (1.5 * found[0], 5.3 * WL / spec.extent_y), (3.0 * found[0], -7.7 * WL / spec.extent_y)):
                        D, i_lp, coarse = _demodulate(gram, carrier)
                        D_ref, i_ref = whole_crop_demodulate(gram, carrier)
                        assert np.array_equal(D, D_ref) and np.array_equal(i_lp, i_ref)
                        crops.add(coarse.nx)
                        fields.append((D, coarse))
        assert crops == {64, 128, 256}
        for shape in ((64, 64), (48, 80), (128, 128)) * 4:
            D = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            fields.append((D, GridSpec(nx=shape[1], ny=shape[0], dx=2.0, dy=3.0)))
        clusters = at_five = 0
        for D, spec in fields:
            env = np.abs(D)
            expect = whole_grid_singular_cluster(D, env, spec)
            if expect is not None:
                assert next(interferometry._core_candidates(D, env, spec)) == expect[0]
                clusters += 1
                at_five += expect[1]
        assert clusters >= 20 and at_five >= 20

    def test_flat_frame(self):
        gram = bare(np.full((128, 128), 0.5))
        assert detect_carrier(gram) is None
        assert whole_half_plane_detect_carrier(gram) is None

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 9, 10, 101, 1000])
    def test_median_gate_equals_median(self, size):
        rng = np.random.default_rng(size)
        cases = [rng.random(size), np.zeros(size), np.full(size, 0.5), rng.integers(0, 4, size) * 0.5]
        half = np.concatenate([np.full(size // 2, 0.5), np.full(size - size // 2, 0.7)])
        cases += [half, half[::-1]]
        for values in cases:
            for peak in (0.0, 1.0, 5.0, 6.0, 7.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 9.0)):
                # peak 5 ties 10 * 0.5 exactly
                expect = peak < 10.0 * float(np.median(values))
                assert _below_tenfold_median(peak, values) == expect, (values, peak)

    def test_wrap_equals_mod_bit_for_bit(self):
        rng = np.random.default_rng(6)
        special = [0.0, -0.0]
        for x in (math.pi, 2.0 * math.pi):
            for v in (x, -x):
                special += [v, np.nextafter(v, np.inf), np.nextafter(v, -np.inf)]
        a = np.concatenate([rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 100_000), special])
        # every difference of two np.angle values, including the extremes
        ph = np.angle(np.exp(1j * rng.uniform(-4.0, 4.0, 2000)))
        ph = np.concatenate([ph, [math.pi, -math.pi, 0.0, -0.0]])
        diffs = (ph[:, None] - ph[None, :]).ravel()
        for a in (a, diffs):
            expect = np.mod(a + math.pi, 2.0 * math.pi) - math.pi
            assert np.array_equal(_wrap(a).view(np.int64), expect.view(np.int64))

    def test_shared_profile_equals_both_separate_profiles(self):
        rng = np.random.default_rng(8)
        specs = (
            GridSpec.square(64, 1.0),
            GridSpec(nx=48, ny=40, dx=1.0, dy=1.0),
            GridSpec(nx=37, ny=52, dx=0.7, dy=1.3),
            GridSpec(nx=9, ny=12, dx=2.0, dy=0.5),
        )
        for spec in specs:
            shape = (spec.ny, spec.nx)
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            field = ComplexFieldGrid(spec, WL, values)
            centers, prof = radial_intensity_profile(field)
            expect_centers, expect_prof = separate_radial_intensity_profile(field)
            assert same_bits(centers, expect_centers) and same_bits(prof, expect_prof), spec
            env = np.abs(values)
            half_x, half_y = spec.extent_x / 2, spec.extent_y / 2
            # the centre, off-sample cores, and cores near and past the corners
            for core in ((0.0, 0.0), (0.37 * spec.dx, -1.61 * spec.dy),
                         (-0.3 * half_x, 0.45 * half_y), (0.9 * half_x, -0.95 * half_y),
                         (-1.2 * half_x, 1.1 * half_y)):
                radius, expect = separate_signal_ring_radius(env, spec, core)
                assert interferometry._signal_ring_radius(env, spec, core) == radius, (spec, core)
                got = azimuthal_profile(env, spec, core, expect.size)
                assert same_bits(got, expect), (spec, core)

    def test_batched_windings_equal_single_circles(self):
        rng = np.random.default_rng(2)
        spec = GridSpec(nx=128, ny=96, dx=3.0, dy=2.0)
        values = rng.standard_normal((96, 128)) + 1j * rng.standard_normal((96, 128))
        for center in ((0.0, 0.0), (7.3, -11.1)):
            # 512, 832 and 1280 samples; the last circle leaves the grid
            radii = [20.0, 103.0, 159.0]
            counts = {loop_sample_count(spec, r) for r in radii}
            assert len(counts) == 3
            got = _windings_on_circles(values, spec, center, radii)
            assert got == [single_circle_winding(values, spec, center, r) for r in radii]



class TestCarrierAtSpectralPeak:
    """The carrier is found at its sideband, whatever the noise floor."""

    def test_every_32_fringe_frame_demodulates_on_64(self, sweep_frames):
        # the carrier lands within a tenth of a bin of the truth, so the crop
        # is the one the exact carrier gets, at every noise level
        for ell, sign, noise, gram in sweep_frames:
            carrier = detect_carrier(gram, sign)
            bins = np.array(carrier) / WL * gram.spec.extent_x
            assert math.hypot(bins[0] - sign * 32, bins[1]) < 0.1, (ell, sign, noise, bins)
            coarse = _demodulate(gram, carrier)[2]
            assert (coarse.ny, coarse.nx) == (64, 64), (ell, sign, noise)

    def test_noisy_sweep_through_16_bit_files(self, tmp_path):
        # 256^2 frames at 5% noise, written and read back as the analyze
        # command reads them (unit pitch, no carrier metadata, the tilt sign
        # as the hint). Measured over 132 such frames (6 seeds), 1 was read
        # wrong, with its carrier 0.015 bins off; so at most 1 of these 22.
        rng = np.random.default_rng(2024)
        wrong = []
        for ell, sign, _, gram in fork_sweep(rng, (0.05,), grids=((256, 0.8e-3),)):
            path = tmp_path / "fork.pgm"
            write_pgm16(path, gram.intensity)
            frame = bare(read_pgm16(path))
            carrier = detect_carrier(frame, sign)
            assert math.hypot(carrier[0] * 256 - sign * 32, carrier[1] * 256) < 0.25
            if extract_charge(frame, sign_hint=sign).ell != ell:
                wrong.append((ell, sign))
        assert len(wrong) <= 1, wrong


class TestGaussianFilter:
    @pytest.mark.parametrize("shape", [(5, 9), (8, 8), (8, 11), (64, 64)])
    @pytest.mark.parametrize("sigma", [1.0, 3.0, 8.0])
    def test_matches_scipy(self, shape, sigma):
        # oracle: scipy's gaussian_filter (reflect edges, truncate 4), which
        # _core_candidates used to call; it now smooths only at sigma >= 3,
        # and sigma 3 and 8 pad beyond the frame
        ndimage = pytest.importorskip("scipy.ndimage")
        a = np.random.default_rng(shape[0] * 100 + shape[1]).random(shape)
        expect = ndimage.gaussian_filter(a, sigma=sigma)
        assert np.max(np.abs(_gaussian_filter(a, sigma) - expect)) <= 1e-14


class TestWholeFrameBits:
    """The row-block interferogram and the one-array half spectrum keep the
    bits of the whole-frame expressions, here with a short last row block."""

    def gram(self, offset_rows=0):
        spec = GridSpec(nx=96, ny=100, dx=PITCH, dy=PITCH)  # row blocks of 7, then 2
        beam = BeamParams(waist_w0=0.6e-3, wavelength=WL)
        vortex = lg_mode_field(LGModeIndex(0, 3), beam, spec)
        reference = lg_mode_field(LGModeIndex(0, 0), beam, spec)
        tilt = 24 * WL / (spec.nx * PITCH)
        gram = synthesize_interferogram(vortex, reference, tilt, offset_rows * PITCH)
        ramp = np.exp(1j * (2.0 * math.pi / WL) * tilt * spec.x)
        total = np.roll(reference.values, offset_rows, axis=0) * ramp + vortex.values
        return gram, np.abs(total) ** 2

    @pytest.mark.parametrize("offset_rows", [0, 3, -5])
    def test_intensity_equals_whole_frame_sum(self, offset_rows):
        gram, expected = self.gram(offset_rows)
        assert np.array_equal(gram.intensity.view(np.uint64), expected.view(np.uint64))

    def test_half_spectrum_equals_rfft2(self):
        gram, _ = self.gram()
        expected = np.fft.rfft2(gram.intensity)
        assert np.array_equal(gram.half_spectrum.view(np.uint64), expected.view(np.uint64))


class TestFringeVisibility:
    # the visibility of plane-wave fringes, read from the demodulated field
    def test_equal_amplitudes_unity(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec), TILT)
        assert demodulated_visibility(gram) == pytest.approx(1.0, abs=1e-9)

    def test_one_to_three_intensity_ratio(self):
        # oracle: 2*sqrt(I1*I2)/(I1+I2) = 2*sqrt(3)/4 = 0.86603
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(
            plane_field(spec), plane_field(spec, amplitude=math.sqrt(3.0)), TILT
        )
        assert demodulated_visibility(gram) == pytest.approx(2.0 * math.sqrt(3.0) / 4.0, abs=1e-9)

    def test_zero_reference_zero_visibility(self):
        spec = GridSpec.square(N, PITCH)
        gram = synthesize_interferogram(plane_field(spec), plane_field(spec, 0.0), TILT)
        assert demodulated_visibility(gram) == pytest.approx(0.0, abs=1e-12)


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


def panel_geometry(**kw):
    # one frame for every panel test, with S2/AS2's focal ring well inside
    # it, so that no test depends on how a ring near the frame's edge reads
    return PanelGeometry(spec=GridSpec.square(256, 50e-6), waist=1e-3, **kw)


ORDERS = [SidebandLabel(k) for k in (3, 2, 1, 0, -1, -2)]
# S3's partner AS3 is not requested: its fields stay in its pair's dict
PARTNERLESS = [SidebandLabel(-3), SidebandLabel(2), SidebandLabel(-1)]


class TestOrderPanel:
    def test_balanced_arms_read_all_plus_one(self):
        results = analyze_order_panel(panel_config(1, 1), panel_geometry(), ORDERS)
        assert [r.reading.ell for r in results] == [1, 1, 1, 1, 1, 1]

    def test_unbalanced_arms_read_odd_ladder(self):
        results = analyze_order_panel(panel_config(1, -1), panel_geometry(), ORDERS)
        assert [r.reading.ell for r in results] == [5, 3, 1, -1, -3, -5]

    def test_zero_charges_read_zero(self):
        results = analyze_order_panel(panel_config(0, 0), panel_geometry(), ORDERS)
        assert [r.reading.ell for r in results] == [0, 0, 0, 0, 0, 0]

    def test_per_order_errors_do_not_abort_others(self):
        # S39 has negative ladder frequency for these seeds
        orders = [SidebandLabel(2), SidebandLabel(-39)]
        results = analyze_order_panel(panel_config(1, -1), panel_geometry(), orders)
        assert results[0].ok and results[0].reading.ell == 3
        assert not results[1].ok
        assert "error" in results[1].status

    def test_noise_does_not_break_readings(self):
        geometry = panel_geometry(noise_fraction=0.05, seed=42)
        results = analyze_order_panel(panel_config(1, -1), geometry, ORDERS)
        assert [r.reading.ell for r in results] == [5, 3, 1, -1, -3, -5]

    def test_negative_noise_is_an_order_error(self):
        geometry = panel_geometry(noise_fraction=-0.1)
        results = analyze_order_panel(panel_config(1, -1), geometry, ORDERS)
        for r in results:
            assert r.status.startswith("error: noise fraction must be non-negative"), r.label

    def test_panel_holds_one_order_working_set(self):
        # a sink that drops the images leaves the three seeds, one order's
        # two fields and its interferogram's work: under 6.3 arrays the size
        # of a complex field (16 bytes a sample), counted after a warm-up
        # panel (6.21 measured; 6.58 with whole-frame sideband factors,
        # interferogram sums and spectra)
        geometry = panel_geometry(noise_fraction=0.03, seed=7)

        def drop(res):
            return replace(res, beam_intensity=None, fork_intensity=None)

        analyze_order_panel(panel_config(1, -1), geometry, ORDERS, sink=drop)
        tracemalloc.start()
        try:
            results = analyze_order_panel(panel_config(1, -1), geometry, ORDERS, sink=drop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [r.reading.ell for r in results] == [5, 3, 1, -1, -3, -5]
        fields = peak / (16 * 256**2)
        assert fields <= 6.3, f"peak of {fields:.2f} field-sized arrays"

    def test_results_preserve_requested_order_and_images(self):
        results = analyze_order_panel(panel_config(1, -1), panel_geometry(), ORDERS)
        assert [r.label for r in results] == ORDERS
        for r in results:
            assert r.beam_intensity.shape == (256, 256)
            assert isinstance(r.fork_intensity, np.ndarray)
            assert r.fork_intensity.shape == (256, 256)
            assert np.all(np.isfinite(r.fork_intensity))
            assert np.all(r.fork_intensity >= 0)


class TestPanelSink:
    """analyze_order_panel hands each order to a sink as soon as it is read."""

    def test_sink_sees_each_order_once_in_pair_order(self):
        # S39 is past the end of the ladder: its error reaches the sink too
        orders = [SidebandLabel(-39)] + [
            SidebandLabel(k) for k in range(-2, 4)
        ]
        seen = []

        def summary(res):
            return str(res.label), res.status, res.reading.ell if res.ok else None

        def sink(res):
            seen.append(res)
            return summary(res)

        results = analyze_order_panel(panel_config(1, -1), panel_geometry(), orders, sink=sink)
        assert [str(r.label) for r in seen] == ["S39", "S2", "AS2", "S1", "AS1", "S", "P"]
        assert seen[0].status.startswith("error: ")
        assert all(r.ok and r.beam_intensity is not None for r in seen[1:])
        by_label = {r.label: r for r in seen}
        assert results == [summary(by_label[label]) for label in orders]
        assert [ell for _, _, ell in results[1:]] == [-5, -3, -1, 1, 3, 5]

    def test_list_holds_what_the_sink_returned(self):
        returned = []

        def sink(res):
            returned.append(object())
            return returned[-1]

        results = analyze_order_panel(panel_config(1, 1), panel_geometry(), ORDERS, sink=sink)
        # ORDERS runs AS2 S2, AS1 S1, P S: pairs in first-seen order
        assert [id(r) for r in results] == [id(returned[i]) for i in (0, 2, 4, 5, 3, 1)]

    def test_sink_exception_propagates(self):
        calls = []

        def sink(res):
            calls.append(res.label)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            analyze_order_panel(panel_config(1, -1), panel_geometry(), ORDERS, sink=sink)
        assert calls == [ORDERS[0]]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("overrides", [
    # a 64-sample frame: all six orders read wrong with status ok, S and P
    # as +2 at confidence 0.984 and 0.988
    ["grid_n=64"],
    # two fringes across the frame: all six read 0 at confidence 0.56-0.68
    ["grid_n=256", "grid_pitch_um=50", "fringes=2"],
])
def test_figure3_panel_never_misreads_confidently(overrides):
    # each order of figure3's panel is refused, reads its ladder charge, or
    # says it has no confidence in the reading
    run = load_config(overrides=overrides)
    cfg = run.raman_config(default_max_as=2, default_max_s=2)
    geometry = PanelGeometry(spec=run.grid_spec(), waist=run.waist, fringes=run.fringes)
    for r in analyze_order_panel(cfg, geometry, ORDERS):
        assert (not r.ok or r.reading.ell == sideband_charge(cfg, r.label)
                or r.reading.confidence == 0), r.label


class TestMirroredOrdersShareFields:
    """Orders k and 1 - k share one observed field where a set's seeds are one array."""

    @pytest.mark.parametrize("m5_in", ["false", "true"])
    def test_633_nm_panel_reads_ladder_charges(self, m5_in):
        # figure3 --set pump_wavelength_nm=633 --set grid_n=256 --set
        # grid_pitch_um=50: its ladder wavelengths give far-field pitches that
        # differ in the last bit unless the default far field is colour-blind,
        # and with S2 first, P and AS2 reuse a reference field
        run = load_config(overrides=[
            "pump_wavelength_nm=633", f"m5_in={m5_in}", "grid_n=256", "grid_pitch_um=50"
        ])
        cfg = run.raman_config(default_max_as=2, default_max_s=2)
        geometry = PanelGeometry(spec=run.grid_spec(), waist=run.waist)
        results = analyze_order_panel(cfg, geometry, ORDERS[::-1])
        assert [r.status for r in results] == ["ok"] * 6
        assert [r.reading.ell for r in results] == [sideband_charge(cfg, r.label) for r in results]

    @pytest.mark.parametrize("ell_s,calls", [(-1, 9), (1, 6)])
    def test_observed_sideband_calls(self, monkeypatch, ell_s, calls):
        # 3 mirrored pairs: the reference set shares always, the vortex set
        # only when ell_p = ell_s. In PARTNERLESS, S3 observes both sets, AS2
        # both, and S1 retags the sets AS2 shares: 4 calls, or 5 when the
        # vortex set does not share
        seen = []
        original = interferometry.observed_sideband

        def counting(pump, stokes, label):
            seen.append(label)
            return original(pump, stokes, label)

        monkeypatch.setattr(interferometry, "observed_sideband", counting)
        results = analyze_order_panel(panel_config(1, ell_s), panel_geometry(), ORDERS)
        assert all(r.ok for r in results)
        assert len(seen) == calls
        seen.clear()
        results = analyze_order_panel(panel_config(1, ell_s), panel_geometry(), PARTNERLESS)
        assert all(r.ok for r in results)
        assert len(seen) == {1: 4, -1: 5}[ell_s]

    @pytest.mark.parametrize("ell_s", [-1, 1])
    def test_each_order_equals_its_single_order_panel(self, ell_s):
        # a single order has no partner to share with; a shared source
        # p^a*conj(s)^b is the partner's product with its factors swapped,
        # and numpy's complex product can round differently that way round
        cfg = panel_config(1, ell_s)
        geometry = panel_geometry(noise_fraction=0.03, seed=7)
        for orders in (ORDERS, PARTNERLESS):
            for shared in analyze_order_panel(cfg, geometry, orders):
                (alone,) = analyze_order_panel(cfg, geometry, [shared.label])
                assert shared.reading.ell == alone.reading.ell, shared.label
                assert shared.reading.confidence == pytest.approx(
                    alone.reading.confidence, rel=1e-12, abs=0.0
                ), shared.label
                for a, b in ((shared.beam_intensity, alone.beam_intensity),
                             (shared.fork_intensity, alone.fork_intensity)):
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), shared.label

    @pytest.mark.parametrize("ell_p,ell_s,calls", [(1, -1, 3), (1, 1, 2), (0, 0, 1), (0, 2, 2)])
    def test_each_seed_charge_sampled_once(self, monkeypatch, ell_p, ell_s, calls):
        # at the waist an LG mode does not depend on wavelength, so the four
        # seeds need one lg_mode_field call per distinct charge
        spec = panel_geometry().spec
        for ell in {ell_p, ell_s, 0}:
            pump, stokes = (
                lg_mode_field(LGModeIndex(0, ell), BeamParams(1e-3, lam), spec)
                for lam in (800e-9, 821e-9)
            )
            assert np.array_equal(pump.values, stokes.values)
        seen = []
        original = interferometry.lg_mode_field

        def counting(index, beam, spec):
            seen.append(index.ell)
            return original(index, beam, spec)

        monkeypatch.setattr(interferometry, "lg_mode_field", counting)
        results = analyze_order_panel(panel_config(ell_p, ell_s), panel_geometry(), ORDERS)
        assert len(seen) == calls
        assert [r.reading.ell for r in results] == [
            sideband_charge(panel_config(ell_p, ell_s), r.label) for r in results
        ]

    @pytest.mark.parametrize("m5_in,seeds,mirrored", [("false", 3, 3), ("true", 2, 6)])
    def test_figure3_panel_samples_each_charge_once(self, monkeypatch, m5_in, seeds, mirrored):
        # the benchmark's two panels: the mirror out seeds charges 1, -1 and 0,
        # the mirror in 1 and 0; a set whose two seeds are one sampling shares
        # each of its 3 pairs' fields (the reference set always, the vortex
        # set only with the mirror in)
        calls = {"lg_mode_field": 0, "mirrored_sideband": 0}
        for name in calls:
            original = getattr(interferometry, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(interferometry, name, counting)
        run = load_config(overrides=[f"m5_in={m5_in}", "grid_n=256", "grid_pitch_um=50"])
        cfg = run.raman_config(default_max_as=2, default_max_s=2)
        geometry = PanelGeometry(spec=run.grid_spec(), waist=run.waist)
        results = analyze_order_panel(cfg, geometry, ORDERS)
        assert [r.status for r in results] == ["ok"] * 6
        assert calls == {"lg_mode_field": seeds, "mirrored_sideband": mirrored}

    @pytest.mark.parametrize("m5_in", ["false", "true"])
    def test_partner_past_the_ladder_end_keeps_its_error(self, m5_in):
        cfg = load_config(overrides=["raman_shift_cm1=5000", f"m5_in={m5_in}"]).raman_config(
            default_max_as=2, default_max_s=2
        )
        orders = [SidebandLabel(3), SidebandLabel(-2)]
        as2, s2 = analyze_order_panel(cfg, panel_geometry(), orders)
        assert as2.ok and as2.reading.ell == sideband_charge(cfg, as2.label)
        assert s2.status.startswith("error: S2 would sit at ")
