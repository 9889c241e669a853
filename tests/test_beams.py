"""Beam construction, decomposition, propagation, and charge metrology."""

import math
import warnings

import numpy as np
import pytest

from vortexcascade import (
    BeamParams,
    ComplexFieldGrid,
    GridSpec,
    LGModeIndex,
    decompose,
    far_field,
    gaussian_field,
    lg_mode_field,
    measure_charge_circulation,
    propagate,
    ring_radius,
)
from vortexcascade.beams import _laguerre, mode_powers_by_ell, phase_circulation, sample_on_circle
from vortexcascade.errors import (
    AliasingError,
    AmbiguousCirculationError,
    BasisTruncationWarning,
    ResolutionError,
)
from vortexcascade.grids import inner_product

WL = 800e-9


def beam_and_grid(n=256, pitch=25e-6, w0=1e-3):
    return BeamParams(waist_w0=w0, wavelength=WL), GridSpec.square(n, pitch)


def field_width(field):
    """w = sqrt(2<r^2>) of the intensity, the 1/e^2 radius for a Gaussian."""
    xx, yy = field.spec.meshes()
    intensity = field.intensity()
    r2 = float(np.sum((xx**2 + yy**2) * intensity) / np.sum(intensity))
    return math.sqrt(2.0 * r2)


class TestLGModeField:
    def test_fundamental_gaussian(self):
        beam, spec = beam_and_grid()
        f = gaussian_field(beam, spec)
        iy, ix = np.unravel_index(np.argmax(f.intensity()), f.intensity().shape)
        assert (iy, ix) == (spec.ny // 2, spec.nx // 2)
        assert f.power == pytest.approx(1.0, abs=1e-6)
        # no phase winding
        assert abs(phase_circulation(f, 0.5e-3)) < 1e-6

    def test_lg01_annular_with_unit_winding(self):
        beam, spec = beam_and_grid()
        f = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        center = abs(f.values[spec.ny // 2, spec.nx // 2])
        assert center == 0.0
        assert measure_charge_circulation(f, 0.7e-3) == 1
        assert f.power == pytest.approx(1.0, abs=1e-6)

    def test_peak_radius_ratio_ell4_vs_ell1(self):
        # oracle: analytic peak radius r = w0*sqrt(|ell|/2), so the ratio is 2
        beam, spec = beam_and_grid()
        r1 = ring_radius(lg_mode_field(LGModeIndex(0, 1), beam, spec))
        r4 = ring_radius(lg_mode_field(LGModeIndex(0, 4), beam, spec))
        assert r4 / r1 == pytest.approx(2.0, rel=0.05)

    def test_resolution_guard(self):
        beam = BeamParams(waist_w0=90e-6, wavelength=WL)  # < 4 pitches
        spec = GridSpec.square(64, 25e-6)
        with pytest.raises(ResolutionError):
            lg_mode_field(LGModeIndex(0, 1), beam, spec)

    def test_off_waist_matches_free_space_propagation(self):
        beam, spec = beam_and_grid(n=256, pitch=16e-6, w0=0.5e-3)
        z = 0.4 * beam.rayleigh_range
        analytic = lg_mode_field(LGModeIndex(1, 2), beam, spec, z=z)
        numeric = propagate(lg_mode_field(LGModeIndex(1, 2), beam, spec), z)
        assert abs(inner_product(analytic, numeric)) == pytest.approx(1.0, abs=1e-6)

    def test_laguerre_matches_explicit_sum(self):
        # oracle: L_p^a(x) = sum_m (-1)^m C(p+a, p-m) x^m / m!
        x = np.linspace(0.0, 30.0, 301)
        for p in range(5):
            for a in range(12):
                expect = sum(
                    (-1) ** m * math.comb(p + a, p - m) * x**m / math.factorial(m)
                    for m in range(p + 1)
                )
                got = _laguerre(p, a, x)
                assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect)), (p, a)

    def test_laguerre_matches_scipy(self):
        special = pytest.importorskip("scipy.special")
        x = np.linspace(0.0, 30.0, 301)
        for p in range(5):
            for ell in range(-11, 12):
                a = abs(ell)
                expect = special.genlaguerre(p, a)(x)
                got = _laguerre(p, a, x)
                assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect)), (p, ell)


class TestRingRadius:
    def test_fundamental_returns_zero(self):
        beam, spec = beam_and_grid()
        assert ring_radius(gaussian_field(beam, spec)) == 0.0

    def test_lg01_one_millimeter_waist(self):
        # oracle: w0*sqrt(1/2) = 0.70711 mm
        beam, spec = beam_and_grid(w0=1e-3)
        r = ring_radius(lg_mode_field(LGModeIndex(0, 1), beam, spec))
        assert r == pytest.approx(1e-3 / math.sqrt(2.0), rel=0.02)

    def test_sqrt_ell_scaling_loglog_slope(self):
        beam, spec = beam_and_grid(w0=0.8e-3)
        ells = np.array([1, 2, 3, 4, 6, 9])
        radii = np.array(
            [ring_radius(lg_mode_field(LGModeIndex(0, int(l)), beam, spec)) for l in ells]
        )
        slope = np.polyfit(np.log(ells), np.log(radii), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.05)

    def test_ratio_invariant_for_selected_charges(self):
        beam, spec = beam_and_grid(w0=0.8e-3)
        r1 = ring_radius(lg_mode_field(LGModeIndex(0, 1), beam, spec))
        for ell in (1, 2, 4, 9):
            r = ring_radius(lg_mode_field(LGModeIndex(0, ell), beam, spec))
            assert r / r1 == pytest.approx(math.sqrt(ell), rel=0.05)


class TestDecompose:
    def test_orthonormality_single_mode(self):
        beam, spec = beam_and_grid()
        f = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        coeffs = decompose(f, beam, p_max=2, ell_range=(-2, 2))
        assert abs(coeffs[LGModeIndex(0, 1)]) == pytest.approx(1.0, abs=1e-6)
        for idx, c in coeffs.items():
            if idx != LGModeIndex(0, 1):
                assert abs(c) < 1e-6

    def test_gram_matrix_identity(self):
        # p <= 3, |ell| <= 5 on a grid with w0 >= 8 pitches and n >= 256
        pitch = 25e-6
        beam = BeamParams(waist_w0=8 * pitch, wavelength=WL)
        spec = GridSpec.square(256, pitch)
        modes = [
            lg_mode_field(LGModeIndex(p, ell), beam, spec)
            for p in range(4)
            for ell in range(-5, 6)
        ]
        stack = np.stack([m.values.ravel() for m in modes])
        gram = (stack.conj() @ stack.T) * spec.cell_area
        assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-6

    def test_ideal_spiral_phase_gaussian_overlap(self):
        # oracle: radial integral of LG_0^1 against exp(i theta)*Gaussian;
        # the closed form is |c|^2 = pi/4
        beam, spec = beam_and_grid()
        w0 = beam.waist_w0
        r = np.linspace(0, 8 * w0, 20001)
        lg01 = (
            math.sqrt(2.0 / math.pi) / w0 * (math.sqrt(2.0) * r / w0) * np.exp(-(r**2) / w0**2)
        )
        gauss = math.sqrt(2.0 / math.pi) / w0 * np.exp(-(r**2) / w0**2)
        oracle = 2.0 * math.pi * np.trapezoid(lg01 * gauss * r, r) / (2.0 * math.pi) * 2 * math.pi
        assert oracle**2 == pytest.approx(math.pi / 4.0, abs=1e-6)

        theta = spec.azimuth()
        g = gaussian_field(beam, spec)
        twisted = g.with_values(g.values * np.exp(1j * theta))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BasisTruncationWarning)
            coeffs = decompose(twisted, beam, p_max=8, ell_range=(1, 1))
        c01 = coeffs[LGModeIndex(0, 1)]
        assert abs(c01) ** 2 == pytest.approx(math.pi / 4.0, abs=1e-3)
        assert abs(c01) ** 2 == pytest.approx(oracle**2, abs=1e-3)
        # remainder sits in higher p of the same ell column
        by_ell = mode_powers_by_ell(coeffs)
        assert by_ell[1] > abs(c01) ** 2 + 0.05

    def test_equal_superposition_splits_evenly(self):
        beam, spec = beam_and_grid()
        plus = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        minus = lg_mode_field(LGModeIndex(0, -1), beam, spec)
        combo = plus.with_values((plus.values + minus.values) / math.sqrt(2.0))
        coeffs = decompose(combo, beam, p_max=1, ell_range=(-1, 1))
        assert abs(coeffs[LGModeIndex(0, 1)]) ** 2 == pytest.approx(0.5, abs=1e-6)
        assert abs(coeffs[LGModeIndex(0, -1)]) ** 2 == pytest.approx(0.5, abs=1e-6)

    def test_truncation_warning(self):
        beam, spec = beam_and_grid()
        theta = spec.azimuth()
        g = gaussian_field(beam, spec)
        twisted = g.with_values(g.values * np.exp(1j * theta))
        with pytest.warns(BasisTruncationWarning):
            decompose(twisted, beam, p_max=0, ell_range=(1, 1))

    def test_parseval_when_basis_captures_power(self):
        # weakly curved Gaussian: smooth, so the basis converges fast
        beam, spec = beam_and_grid()
        xx, yy = spec.meshes()
        curved = gaussian_field(beam, spec)
        phase = 0.5 * ((xx**2 + yy**2) / beam.waist_w0**2)
        curved = curved.with_values(curved.values * np.exp(1j * phase))
        coeffs = decompose(curved, beam, p_max=10, ell_range=(0, 0))
        captured = sum(abs(c) ** 2 for c in coeffs.values())
        assert captured >= 0.99 * curved.power
        assert captured == pytest.approx(curved.power, rel=0.01)

    def test_wavelength_mismatch_rejected(self):
        beam, spec = beam_and_grid()
        f = gaussian_field(beam, spec)
        with pytest.raises(ValueError):
            decompose(f, BeamParams(1e-3, 820e-9), p_max=0, ell_range=(0, 0))


class TestPropagate:
    def test_zero_distance_is_identity(self):
        beam, spec = beam_and_grid()
        f = gaussian_field(beam, spec)
        assert propagate(f, 0.0) is f

    def test_power_conserved(self):
        beam, spec = beam_and_grid(n=256, pitch=16e-6, w0=0.5e-3)
        f = lg_mode_field(LGModeIndex(0, 2), beam, spec)
        out = propagate(f, 0.5 * beam.rayleigh_range)
        assert out.power == pytest.approx(f.power, rel=1e-6)

    def test_charge_conserved_up_to_five(self):
        beam, spec = beam_and_grid(n=256, pitch=16e-6, w0=0.5e-3)
        z = 0.2 * beam.rayleigh_range
        for ell in (-5, -2, 1, 3, 5):
            out = propagate(lg_mode_field(LGModeIndex(0, ell), beam, spec), z)
            loop = max(0.4e-3, ring_radius(out))
            assert measure_charge_circulation(out, loop) == ell

    def test_gaussian_spreads_by_sqrt2_at_rayleigh_range(self):
        # oracle: w(z) = w0*sqrt(1 + (z/zR)^2)
        beam, spec = beam_and_grid(n=256, pitch=16e-6, w0=0.5e-3)
        f = gaussian_field(beam, spec)
        out = propagate(f, beam.rayleigh_range)
        assert field_width(out) / field_width(f) == pytest.approx(math.sqrt(2.0), rel=1e-3)

    def test_ell_content_unchanged(self):
        beam, spec = beam_and_grid(n=256, pitch=16e-6, w0=0.5e-3)
        z = 0.3 * beam.rayleigh_range
        out = propagate(lg_mode_field(LGModeIndex(0, 1), beam, spec), z)
        coeffs = decompose(out, beam, p_max=6, ell_range=(-2, 2), z=z)
        by_ell = mode_powers_by_ell(coeffs)
        assert by_ell[1] == pytest.approx(1.0, abs=1e-6)
        assert abs(inner_product(lg_mode_field(LGModeIndex(0, 1), beam, spec, z=z), out)) == pytest.approx(1.0, abs=1e-6)

    def test_aliasing_guard_trips(self):
        beam = BeamParams(waist_w0=0.2e-3, wavelength=WL)
        spec = GridSpec.square(64, 30e-6)
        f = gaussian_field(beam, spec)
        with pytest.raises(AliasingError):
            propagate(f, 50.0)


class TestFarField:
    def test_power_conserved_and_pitch_self_dual(self):
        beam, spec = beam_and_grid()
        f = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        ff = far_field(f)
        assert ff.spec.dx == pytest.approx(spec.dx)
        assert ff.power == pytest.approx(f.power, rel=1e-9)

    def test_charge_preserved(self):
        beam, spec = beam_and_grid()
        for ell in (-3, 1, 2):
            ff = far_field(lg_mode_field(LGModeIndex(0, ell), beam, spec))
            loop = max(8 * ff.spec.dx, ring_radius(ff))
            assert measure_charge_circulation(ff, loop) == ell

    def test_gaussian_far_width_matches_focus_formula(self):
        # oracle: waist at the focal plane of a lens f is lambda*f/(pi*w0)
        beam, spec = beam_and_grid(n=512, pitch=20e-6, w0=1.2e-3)
        f_len = 0.5
        ff = far_field(gaussian_field(beam, spec), focal_length=f_len)
        expect = WL * f_len / (math.pi * beam.waist_w0)
        assert field_width(ff) == pytest.approx(expect, rel=1e-3)

    def test_oversample_refines_sampling(self):
        # oracle: far ring of LG_0^1 is sqrt(1/2)*lambda*f/(pi*w0); at 1x the
        # ring is ~2 samples and barely resolved, at 4x it matches the oracle
        beam, spec = beam_and_grid(n=128, pitch=25e-6, w0=0.4e-3)
        f = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        fine = far_field(f, oversample=4)
        assert fine.spec.dx == pytest.approx(far_field(f).spec.dx)
        f_len = 4 * 128 * spec.dx**2 / WL
        oracle = math.sqrt(0.5) * WL * f_len / (math.pi * beam.waist_w0)
        assert ring_radius(fine) == pytest.approx(oracle, rel=0.05)

    @staticmethod
    def padded_fft_far_field(values, spec, lam, f, oversample):
        """The padded-FFT crop: centred FFT of the zero-padded source, central window."""
        npy, npx = oversample * spec.ny, oversample * spec.nx
        oy, ox = (npy - spec.ny) // 2, (npx - spec.nx) // 2
        source = np.zeros((npy, npx), dtype=np.complex128)
        source[oy : oy + spec.ny, ox : ox + spec.nx] = values
        transformed = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(source)))
        window = transformed[oy : oy + spec.ny, ox : ox + spec.nx]
        pitch = (lam * f / (npx * spec.dx), lam * f / (npy * spec.dy))
        return window * spec.cell_area / (lam * f), pitch

    def test_matches_padded_fft_crop(self):
        # oracle: the window the matrix Fourier transform computes is the
        # central crop of the padded FFT, to rounding
        rng = np.random.default_rng(11)
        cases = [((ny, nx), os, None) for ny, nx in ((8, 8), (9, 11), (16, 13), (33, 40), (64, 64))
                 for os in (1, 2, 3, 4)]
        cases += [((9, 11), 3, 0.25), ((512, 512), 4, None)]
        for (ny, nx), os, f_len in cases:
            spec = GridSpec(nx=nx, ny=ny, dx=20e-6, dy=30e-6)
            values = rng.standard_normal((ny, nx)) + 1j * rng.standard_normal((ny, nx))
            ff = far_field(ComplexFieldGrid(spec, WL, values), focal_length=f_len, oversample=os)
            f = f_len if f_len is not None else os * nx * spec.dx**2 / WL
            expect, pitch = self.padded_fft_far_field(values, spec, WL, f, os)
            case = f"{ny}x{nx} oversample={os} f={f_len}"
            assert (ff.spec.dx, ff.spec.dy) == pitch, case
            rel = np.max(np.abs(ff.values - expect)) / np.max(np.abs(expect))
            assert rel <= 1e-12, case


class TestSampleOnCircle:
    def test_matches_scipy_map_coordinates(self):
        # oracle: the two-pass scipy call sample_on_circle used to make
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(5)
        n = 331
        for spec in (GridSpec(nx=16, ny=16, dx=1.0, dy=1.0), GridSpec(nx=13, ny=9, dx=0.5, dy=2.0)):
            values = rng.standard_normal((spec.ny, spec.nx)) + 1j * rng.standard_normal(
                (spec.ny, spec.nx)
            )
            # inside the grid, across its edges, and wholly outside it
            for radius, center in ((2.0, (0.0, 0.0)), (3.3, (1.2, -0.7)), (7.5, (0.0, 0.0)),
                                   (4.0, (-5.0, 6.0)), (30.0, (0.0, 0.0)), (2.0, (40.0, -40.0))):
                got = sample_on_circle(values, spec, radius, n, center, angle0=0.3)
                ang = 0.3 + 2.0 * math.pi * np.arange(n) / n
                col = (center[0] + radius * np.cos(ang)) / spec.dx + spec.nx // 2
                row = (center[1] + radius * np.sin(ang)) / spec.dy + spec.ny // 2
                coords = np.vstack([row, col])
                expect = ndimage.map_coordinates(
                    values.real, coords, order=1, mode="nearest"
                ) + 1j * ndimage.map_coordinates(values.imag, coords, order=1, mode="nearest")
                assert np.max(np.abs(got - expect)) <= 1e-14, (spec, radius, center)


class TestChargeCirculation:
    def test_plain_modes(self):
        beam, spec = beam_and_grid()
        assert measure_charge_circulation(lg_mode_field(LGModeIndex(0, 3), beam, spec), 1.2e-3) == 3
        assert measure_charge_circulation(lg_mode_field(LGModeIndex(0, -1), beam, spec), 0.7e-3) == -1

    def test_all_modes_to_five(self):
        beam, spec = beam_and_grid(w0=0.8e-3)
        for p in range(3):
            for ell in range(-5, 6):
                f = lg_mode_field(LGModeIndex(p, ell), beam, spec)
                assert measure_charge_circulation(f, 0.6e-3) == ell

    def test_product_adds_windings(self):
        # oracle: phase windings add under pointwise multiplication
        beam, spec = beam_and_grid()
        a = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        b = lg_mode_field(LGModeIndex(0, 2), beam, spec)
        product = a.with_values(a.values * b.values)
        assert measure_charge_circulation(product, 0.8e-3) == 3

    def test_fractional_charge_is_ambiguous(self):
        beam, spec = beam_and_grid()
        g = gaussian_field(beam, spec)
        half = g.with_values(g.values * np.exp(0.5j * spec.azimuth()))
        with pytest.raises(AmbiguousCirculationError):
            measure_charge_circulation(half, 0.8e-3)

    def test_loop_radius_validated(self):
        beam, spec = beam_and_grid()
        f = lg_mode_field(LGModeIndex(0, 1), beam, spec)
        with pytest.raises(ValueError):
            measure_charge_circulation(f, 1e-6)
        with pytest.raises(ValueError):
            measure_charge_circulation(f, 1.0)


class TestGridTypes:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            GridSpec.square(4, 1e-6)
        with pytest.raises(ValueError):
            GridSpec(nx=64, ny=64, dx=-1e-6, dy=1e-6)

    def test_field_invariants(self):
        spec = GridSpec.square(16, 1e-6)
        with pytest.raises(ValueError):
            ComplexFieldGrid(spec, -1.0, np.ones((16, 16)))
        with pytest.raises(ValueError):
            ComplexFieldGrid(spec, 1e-6, np.ones((8, 16)))
        with pytest.raises(ValueError):
            ComplexFieldGrid(spec, 1e-6, np.full((16, 16), np.nan))

    def test_values_are_immutable(self):
        spec = GridSpec.square(16, 1e-6)
        f = ComplexFieldGrid(spec, 1e-6, np.ones((16, 16)))
        with pytest.raises(ValueError):
            f.values[0, 0] = 2.0

    def test_mode_index_invariant(self):
        with pytest.raises(ValueError):
            LGModeIndex(-1, 0)
