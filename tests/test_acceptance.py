"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from vortexcascade import (
    BeamParams,
    GridSpec,
    LGModeIndex,
    PanelGeometry,
    RamanConfig,
    SidebandLabel,
    SppSpec,
    add_intensity_noise,
    analyze_order_panel,
    apply_spp,
    cascade_phase_recursion,
    conservation_check,
    decompose,
    extract_charge,
    gaussian_field,
    lg_mode_field,
    observed_sideband,
    ring_radius,
    sideband_charge,
    sideband_frequency,
    synthesize_interferogram,
    synthesize_waveform,
    train_period,
)
from vortexcascade.beams import mode_powers_by_ell
from vortexcascade.cascade import CombChannel
from vortexcascade.cli import main
from vortexcascade.errors import NegativeFrequencyError
from vortexcascade.interferometry import Interferogram
from vortexcascade.pgmio import read_pgm16, write_pgm16
from vortexcascade.pulses import ChirpedPulsePair, TimeGrid, chirped_pair_field, delay_for_beat
from vortexcascade.units import omega_from_wavenumber_cm, wavelength_from_omega

PUMP_CM = 12500.0
SHIFT_CM = 320.0
WL = 800e-9


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS")


def raman_config(ell_p, ell_s, max_as=20, max_s=20):
    return RamanConfig(
        omega_p=omega_from_wavenumber_cm(PUMP_CM),
        omega_s=omega_from_wavenumber_cm(PUMP_CM - SHIFT_CM),
        ell_p=ell_p,
        ell_s=ell_s,
        omega_raman=omega_from_wavenumber_cm(SHIFT_CM),
        max_as=max_as,
        max_s=max_s,
    )


def test_criterion_1_selection_rule_exactness():
    with criterion(1, "selection-rule exactness"):
        start = time.perf_counter()
        for ell_p in range(-10, 11):
            for ell_s in range(-10, 11):
                cfg = raman_config(ell_p, ell_s, max_as=25, max_s=25)
                for k in range(-25, 27):
                    label = SidebandLabel(k)
                    try:
                        omega_closed = sideband_frequency(cfg, label)
                    except NegativeFrequencyError:
                        continue
                    omega_rec, ell_rec = cascade_phase_recursion(cfg, label)
                    assert ell_rec == sideband_charge(cfg, label)
                    assert math.isclose(omega_rec, omega_closed, rel_tol=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f} s"


def run_panel(ell_p, ell_s):
    cfg = raman_config(ell_p, ell_s, max_as=2, max_s=2)
    geometry = PanelGeometry(spec=GridSpec.square(512, 25e-6), waist=1e-3)
    orders = [SidebandLabel(k) for k in (3, 2, 1, 0, -1, -2)]
    return analyze_order_panel(cfg, geometry, orders)


def test_criterion_2_figure3_sequences():
    with criterion(2, "sideband charge sequences end to end"):
        start = time.perf_counter()
        opposite = run_panel(1, -1)
        assert [r.reading.ell for r in opposite] == [5, 3, 1, -1, -3, -5]
        equal = run_panel(1, 1)
        assert [r.reading.ell for r in equal] == [1, 1, 1, 1, 1, 1]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_3_conservation_law():
    with criterion(3, "charge conservation on random triples"):
        rng = np.random.default_rng(2024)
        for _ in range(10_000):
            ell_p = int(rng.integers(-10, 11))
            ell_s = int(rng.integers(-10, 11))
            n = int(rng.integers(1, 26))
            assert conservation_check(raman_config(ell_p, ell_s), n)


def test_criterion_4_frequency_ladder():
    with criterion(4, "frequency ladder wavelengths"):
        cfg = raman_config(1, -1)
        # oracle: wavenumber arithmetic
        as1_nm = 1e7 / (PUMP_CM + SHIFT_CM)
        s1_nm = 1e7 / (PUMP_CM - 2 * SHIFT_CM)
        got_as1 = wavelength_from_omega(
            sideband_frequency(cfg, SidebandLabel(2))
        ) * 1e9
        got_s1 = wavelength_from_omega(
            sideband_frequency(cfg, SidebandLabel(-1))
        ) * 1e9
        assert abs(got_as1 - as1_nm) < 0.1
        assert abs(got_s1 - s1_nm) < 0.1
        assert got_as1 == pytest.approx(780.0, abs=0.1)
        assert got_s1 == pytest.approx(843.2, abs=0.1)
        for n in range(1, 21):
            assert sideband_frequency(cfg, SidebandLabel(n + 1)) > 0


def test_criterion_5_ring_radius_scaling():
    with criterion(5, "ring-radius scaling"):
        beam = BeamParams(waist_w0=0.8e-3, wavelength=WL)
        spec = GridSpec.square(512, 25e-6)
        ells = np.array([1, 2, 3, 4, 6, 9])
        radii = np.array(
            [ring_radius(lg_mode_field(LGModeIndex(0, int(l)), beam, spec)) for l in ells]
        )
        slope = np.polyfit(np.log(ells), np.log(radii), 1)[0]
        assert abs(slope - 0.50) <= 0.05

        # sideband image size growth for opposite seed charges, orders 0..2
        lam_p = wavelength_from_omega(omega_from_wavenumber_cm(PUMP_CM))
        lam_s = wavelength_from_omega(omega_from_wavenumber_cm(PUMP_CM - SHIFT_CM))
        pump = lg_mode_field(LGModeIndex(0, 1), BeamParams(1e-3, lam_p), spec)
        stokes = lg_mode_field(LGModeIndex(0, -1), BeamParams(1e-3, lam_s), spec)
        observed = [
            ring_radius(observed_sideband(pump, stokes, SidebandLabel(k)))
            for k in (1, 2, 3)  # pump, AS1, AS2
        ]
        assert observed[0] < observed[1] < observed[2]


def test_criterion_6_charge_round_trip():
    with criterion(6, "charge round trip with files and noise"):
        beam = BeamParams(waist_w0=1.6e-3, wavelength=WL)
        spec = GridSpec.square(512, 25e-6)
        tilt = 32 * WL / (512 * 25e-6)  # inside the 12-40 fringe band
        reference = gaussian_field(beam, spec)
        grams = {}
        for ell in range(-5, 6):
            vortex = lg_mode_field(LGModeIndex(0, ell), beam, spec)
            for sign, t in (("+", tilt), ("-", -tilt)):
                gram = synthesize_interferogram(vortex, reference, t)
                assert extract_charge(gram).ell == ell, (ell, sign)
                grams[(ell, sign)] = gram

        # 16-bit PGM file round trip (tmp-free: in-memory via tmpdir-less path)
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            for (ell, sign), gram in grams.items():
                path = Path(tmp) / f"g_{ell}_{sign}.pgm"
                write_pgm16(path, gram.intensity)
                loaded = Interferogram(
                    spec=gram.spec,
                    intensity=read_pgm16(path),
                    carrier=gram.carrier,
                    wavelength=gram.wavelength,
                    label=gram.label,
                )
                assert extract_charge(loaded).ell == ell, ("pgm", ell, sign)

        # 500 seeded 5% noise trials across all charges, >= 99% exact
        beam_n = BeamParams(waist_w0=0.8e-3, wavelength=WL)
        spec_n = GridSpec.square(256, 25e-6)
        tilt_n = 32 * WL / (256 * 25e-6)
        ref_n = gaussian_field(beam_n, spec_n)
        rng = np.random.default_rng(20240501)
        failures = 0
        trials = 0
        clean = {
            ell: synthesize_interferogram(
                lg_mode_field(LGModeIndex(0, ell), beam_n, spec_n), ref_n, tilt_n
            )
            for ell in range(-5, 6)
        }
        while trials < 500:
            for ell in range(-5, 6):
                if trials >= 500:
                    break
                noisy = add_intensity_noise(clean[ell], 0.05, rng)
                if extract_charge(noisy).ell != ell:
                    failures += 1
                trials += 1
        assert failures <= 5, f"{failures} failures in {trials} noisy trials"


def test_criterion_7_spp_quantization():
    with criterion(7, "16-step spiral plate retention"):
        # 1-D oracle: azimuthal coefficient of the 16-step staircase
        theta = (np.arange(400_000) + 0.5) * 2.0 * np.pi / 400_000
        q16 = np.floor(16 * theta / (2 * np.pi)) * (2 * np.pi / 16)
        c1 = abs(complex(np.mean(np.exp(1j * (q16 - theta)))))
        assert c1 == pytest.approx(0.9936, abs=2e-4)  # sinc(pi/16)

        beam = BeamParams(waist_w0=1e-3, wavelength=WL)
        spec = GridSpec.square(256, 25e-6)
        g = gaussian_field(beam, spec)
        import warnings

        from vortexcascade.errors import BasisTruncationWarning

        def ell1_power(field):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", BasisTruncationWarning)
                coeffs = decompose(field, beam, p_max=10, ell_range=(1, 1))
            return mode_powers_by_ell(coeffs)[1]

        p_cont = ell1_power(apply_spp(g, SppSpec(1, WL)))
        p_step = ell1_power(apply_spp(g, SppSpec(1, WL, n_steps=16)))
        power_ratio = p_step / p_cont
        retention = math.sqrt(power_ratio)
        # the 2-D decomposition agrees with the 1-D oracle within 1e-3 and
        # the plate retains at least 0.99 of the continuous-plate content
        assert abs(retention - c1) < 1e-3
        assert abs(power_ratio - c1**2) < 1e-3
        assert retention >= 0.99


def test_criterion_8_chirp_matching():
    with criterion(8, "chirp matching and comb train period"):
        omega_r = omega_from_wavenumber_cm(SHIFT_CM)
        # oracle: T = 1/(c*nu_tilde) with c = 2.998e10 cm/s
        period_oracle = 1.0 / (2.998e10 * SHIFT_CM)
        assert period_oracle == pytest.approx(104.2e-15, abs=0.05e-15)

        b = 1.0e26
        pair = ChirpedPulsePair(tau=800e-15, b=b, t_d=delay_for_beat(b, omega_r))
        nt, dt = 16384, 0.5e-15
        grid = TimeGrid(nt, dt, t_start=-(nt // 2) * dt + pair.t_d / 2.0)
        intensity = np.abs(chirped_pair_field(pair, grid)) ** 2
        measured = train_period(intensity, dt)
        assert abs(measured - period_oracle) / period_oracle < 0.01

        cfg = raman_config(1, 1)
        channels = tuple(
            CombChannel(
                label=SidebandLabel(k),
                omega=sideband_frequency(cfg, SidebandLabel(k)),
                ell=sideband_charge(cfg, SidebandLabel(k)),
            )
            for k in range(-2, 3)
        )
        wave_grid = TimeGrid(16384, 0.4e-15)
        waveform = synthesize_waveform(channels, wave_grid)
        train = train_period(waveform, wave_grid.dt)
        assert abs(train - measured) <= wave_grid.dt


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical reruns"):
        args = [
            "--seed", "7",
            "--set", "grid_n=256",
            "--set", "grid_pitch_um=50",
            "--set", "noise=0.03",
        ]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["figure3", "--out", str(out_a)] + args) == 0
        assert main(["figure3", "--out", str(out_b)] + args) == 0
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b and len(names_a) == 13
        for name in names_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
