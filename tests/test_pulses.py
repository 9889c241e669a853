"""Chirped-pulse beating and comb waveform synthesis."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import vortexcascade
from vortexcascade import (
    ChirpedPulsePair,
    RamanConfig,
    SidebandLabel,
    TimeGrid,
    beat_frequency,
    chirped_pair_field,
    synthesize_waveform,
    train_period,
)
from vortexcascade.cascade import (
    CombChannel,
    build_comb,
    sideband_charge,
    sideband_frequency,
)
from vortexcascade.errors import AliasingError, NonPeriodicError
from vortexcascade.cli import main
from vortexcascade.pulses import delay_for_beat
from vortexcascade.units import omega_from_wavenumber_cm

# oracle: nu = c*nu_tilde with c = 2.998e10 cm/s gives 9.594 THz and a
# 104.24 fs period for the 320 cm^-1 mode
RAMAN_CM = 320.0
OMEGA_R = omega_from_wavenumber_cm(RAMAN_CM)
RAMAN_PERIOD = 1.0 / (2.998e10 * RAMAN_CM)

CHIRP_B = 1.0e26  # rad/s^2

# record lengths: the shortest, odd and even lengths around 2**13, and one
# that is neither a power of two nor a multiple of one
RECORD_LENGTHS = [64, 2**13 - 1, 2**13, 2**13 + 1, 3 * 2**13 + 7]

# largest |closed form - channel loop| allowed, as a fraction of the peak N^2:
# the loop's own phases -omega*t are rounded to a few 1e-12 of the peak
ORACLE_TOLERANCE = 1e-11


def matched_pair(tau=800e-15):
    return ChirpedPulsePair(tau=tau, b=CHIRP_B, t_d=delay_for_beat(CHIRP_B, OMEGA_R))


def pair_grid(pair, nt=16384, dt=0.5e-15):
    return TimeGrid(nt, dt, t_start=-(nt // 2) * dt + pair.t_d / 2.0)


def raman_320_config():
    return RamanConfig(
        omega_p=omega_from_wavenumber_cm(12500.0),
        omega_s=omega_from_wavenumber_cm(12500.0 - RAMAN_CM),
        ell_p=1,
        ell_s=1,
        omega_raman=OMEGA_R,
    )


def serial_waveform(comb, grid):
    """Oracle: the sum of the channels' phasors at every sample, squared."""
    t = grid.times
    x = np.empty_like(t)
    phasor = np.empty(t.shape, dtype=np.complex128)
    field = np.zeros_like(phasor)
    for channel in comb:
        np.multiply(-channel.omega, t, out=x)
        np.cos(x, out=phasor.real)
        np.sin(x, out=phasor.imag)
        field += phasor
    return np.abs(field) ** 2


def assert_matches_channel_loop(comb, grid, expect=None):
    expect = serial_waveform(comb, grid) if expect is None else expect
    err = float(np.max(np.abs(synthesize_waveform(comb, grid) - expect)))
    assert err <= ORACLE_TOLERANCE * len(comb) ** 2, (len(comb), grid.nt, err)


# the default 41-line comb on a record that is not a power of two
DEFAULT_COMB_CODE = f"""
from vortexcascade import TimeGrid, pulses
from vortexcascade.cascade import build_comb
from vortexcascade.config import load_config
cfg = load_config(None, [], 0)
comb = build_comb(cfg.raman_config(default_max_as=20, default_max_s=20), range(-20, 21))
grid = TimeGrid({RECORD_LENGTHS[-1]}, cfg.dt)
"""


def run_python(code):
    """Run code in a fresh interpreter on this package; return its stdout."""
    src = str(Path(vortexcascade.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return proc.stdout


def five_channel_comb():
    cfg = raman_320_config()
    channels = tuple(
        CombChannel(
            label=SidebandLabel(k),
            omega=sideband_frequency(cfg, SidebandLabel(k)),
            ell=sideband_charge(cfg, SidebandLabel(k)),
        )
        for k in range(-2, 3)
    )
    return channels


class TestBeatFrequency:
    def test_zero_delay_zero_beat(self):
        assert beat_frequency(ChirpedPulsePair(tau=1e-12, b=CHIRP_B, t_d=0.0)) == 0.0

    def test_matching_delay_recovers_raman_frequency(self):
        pair = matched_pair()
        assert beat_frequency(pair) == OMEGA_R
        assert pair.t_d == pytest.approx(OMEGA_R / CHIRP_B, abs=0.0)

    def test_raman_frequency_and_period_values(self):
        assert OMEGA_R / (2.0 * math.pi) == pytest.approx(9.594e12, rel=1e-4)
        assert 2.0 * math.pi / OMEGA_R == pytest.approx(104.2e-15, rel=1e-3, abs=0.0)
        assert 2.0 * math.pi / OMEGA_R == pytest.approx(RAMAN_PERIOD, rel=1e-3, abs=0.0)

    @given(
        st.floats(min_value=1e24, max_value=1e28),
        st.floats(min_value=1e-14, max_value=1e-11),
        st.floats(min_value=0.125, max_value=8.0),
    )
    def test_bilinear_scaling_invariance(self, b, t_d, alpha):
        base = beat_frequency(ChirpedPulsePair(tau=1e-12, b=b, t_d=t_d))
        scaled = beat_frequency(ChirpedPulsePair(tau=1e-12, b=b * alpha, t_d=t_d / alpha))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChirpedPulsePair(tau=-1.0, b=CHIRP_B, t_d=0.0)
        with pytest.raises(ValueError):
            ChirpedPulsePair(tau=1e-12, b=CHIRP_B, t_d=-1e-15)
        with pytest.raises(ValueError):
            delay_for_beat(0.0, OMEGA_R)


class TestChirpedPairField:
    def test_zero_delay_is_a_single_unmodulated_pulse(self):
        pair = ChirpedPulsePair(tau=800e-15, b=CHIRP_B, t_d=0.0)
        grid = TimeGrid(8192, 1.0e-15)
        intensity = np.abs(chirped_pair_field(pair, grid)) ** 2
        with pytest.raises(NonPeriodicError):
            train_period(intensity, grid.dt)

    def test_modulation_period_matches_raman_period(self):
        pair = matched_pair()
        grid = pair_grid(pair)
        intensity = np.abs(chirped_pair_field(pair, grid)) ** 2
        assert train_period(intensity, grid.dt) == pytest.approx(RAMAN_PERIOD, rel=0.01, abs=0.0)

    def test_intensity_equals_complex_exponential_form(self):
        # oracle: each pulse as envelope * exp(1j * phase), bit for bit
        pair = matched_pair()
        grid = pair_grid(pair, nt=2**16)
        t = grid.times

        def pulse(t):
            return np.exp(-(t**2) / (2.0 * pair.tau**2)) * np.exp(1j * (0.5 * pair.b * t**2))

        expect = np.abs(pulse(t) + pulse(t - pair.t_d)) ** 2
        assert np.array_equal(np.abs(chirped_pair_field(pair, grid)) ** 2, expect)

    def test_span_guard(self):
        pair = matched_pair(tau=2e-12)
        grid = TimeGrid(128, 1e-15)
        with pytest.raises(ValueError):
            chirped_pair_field(pair, grid)
        # refused from the record's ends, before its samples are made
        assert "times" not in grid.__dict__

    def test_instantaneous_frequency_guard(self):
        pair = ChirpedPulsePair(tau=800e-15, b=1e30, t_d=100e-15)
        grid = TimeGrid(8192, 1.0e-15)
        with pytest.raises(AliasingError):
            chirped_pair_field(pair, grid)
        assert "times" not in grid.__dict__


class TestSynthesizeWaveform:
    def test_single_channel_is_constant(self):
        comb = (five_channel_comb()[2],)
        grid = TimeGrid(4096, 0.4e-15)
        intensity = synthesize_waveform(comb, grid)
        assert np.ptp(intensity) < 1e-9 * intensity.mean()
        with pytest.raises(NonPeriodicError):
            train_period(intensity, grid.dt)

    def test_five_flat_channels_make_raman_period_train(self):
        comb = five_channel_comb()
        grid = TimeGrid(16384, 0.4e-15)
        intensity = synthesize_waveform(comb, grid)
        assert train_period(intensity, grid.dt) == pytest.approx(RAMAN_PERIOD, abs=grid.dt)

    def test_constructive_peak_is_n_squared(self):
        comb = five_channel_comb()
        grid = TimeGrid(16384, 0.4e-15)
        intensity = synthesize_waveform(comb, grid)
        single = synthesize_waveform((comb[0],), grid)
        assert intensity.max() == pytest.approx(25.0 * single.mean(), rel=1e-9)

    def test_energy_parseval(self):
        # an integer number of train periods makes the cross terms vanish
        comb = five_channel_comb()
        spacing = comb[1].omega - comb[0].omega
        period = 2.0 * math.pi / spacing
        nt = 8192
        dt = 32 * period / nt  # exactly 32 periods in the record
        grid = TimeGrid(nt, dt)
        intensity = synthesize_waveform(comb, grid)
        energy = float(np.sum(intensity)) * dt
        expect = len(comb) * nt * dt  # unit channels
        assert energy == pytest.approx(expect, rel=1e-6, abs=0.0)

    def test_nyquist_guard(self):
        comb = five_channel_comb()
        with pytest.raises(AliasingError):
            synthesize_waveform(comb, TimeGrid(4096, 2.0e-15))

    def test_equals_channel_matrix_sum(self):
        # oracle: the channels x samples matrix, summed over its rows; the
        # comb and pulse commands' windows, five, two and one lines
        grid = TimeGrid(4096, 0.4e-15)
        t = grid.times
        for ks in (None, range(-20, 21), range(-2, 3), range(0, 2), range(0, 1)):
            comb = build_comb(raman_320_config(), ks)
            omegas = np.array([c.omega for c in comb])
            matrix = np.exp(-1j * omegas[:, None] * t[None, :])
            assert_matches_channel_loop(comb, grid, np.abs(matrix.sum(axis=0)) ** 2)

    @pytest.mark.parametrize("ks", [range(0, 1), range(-2, 3), range(-20, 21), range(0, 2)])
    @pytest.mark.parametrize("nt", RECORD_LENGTHS)
    def test_blocks_equal_serial_channel_loop(self, nt, ks):
        comb = build_comb(raman_320_config(), ks)
        assert_matches_channel_loop(comb, TimeGrid(nt, 0.4e-15))

    def test_benchmark_record_matches_channel_loop(self):
        # the pulse item of the benchmark: 41 lines over 2**18 samples, where
        # t reaches 500 train periods from 0
        comb = build_comb(raman_320_config(), range(-20, 21))
        assert_matches_channel_loop(comb, TimeGrid(2**18, 0.4e-15))

    def test_unequal_spacings_refused(self):
        lines = five_channel_comb()
        with pytest.raises(ValueError, match="equally spaced"):
            synthesize_waveform((lines[0], lines[1], lines[3]), TimeGrid(64, 0.4e-15))
        # one line moved by a millionth of the spacing, far past rounding
        spacing = lines[1].omega - lines[0].omega
        moved = replace(lines[2], omega=lines[2].omega + 1e-6 * spacing)
        with pytest.raises(ValueError, match="equally spaced"):
            synthesize_waveform(lines[:2] + (moved,) + lines[3:], TimeGrid(64, 0.4e-15))

    @pytest.mark.parametrize(
        "channels,line",
        [
            (1, "comb train: no periodic structure detected"),
            (2, "comb train period: 104.200 fs (relative error vs Raman: 0.04%)"),
            (5, "comb train period: 104.247 fs (relative error vs Raman: 0.01%)"),
            (41, "comb train period: 104.240 fs (relative error vs Raman: 0.00%)"),
        ],
    )
    def test_printed_train_period(self, tmp_path, capsys, channels, line):
        # the periods of the default record's trains, read from their
        # zero-padded autocorrelation: each within 0.05% of the Raman period
        argv = ["pulse", "--out", str(tmp_path), "--set", "match=true",
                "--set", f"pulse_channels={channels}"]
        assert main(argv) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_concurrent_callers_get_the_serial_bits(self):
        # more calling threads than CPUs, switching often, get one call's bits
        comb = build_comb(raman_320_config(), range(-20, 21))
        grid = TimeGrid(RECORD_LENGTHS[-1], 0.4e-15)
        expect = synthesize_waveform(comb, grid)
        results = [[] for _ in range(4)]

        def call(out):
            for _ in range(5):
                out.append(synthesize_waveform(comb, grid))

        threads = [threading.Thread(target=call, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for out in results:
            assert len(out) == 5
            assert all(np.array_equal(w, expect) for w in out)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
    def test_one_cpu_runs_in_the_caller(self):
        code = (
            "import hashlib, json, os, threading\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            + DEFAULT_COMB_CODE
            + "w = pulses.synthesize_waveform(comb, grid)\n"
            "print(json.dumps({'sha': hashlib.sha256(w.tobytes()).hexdigest(),\n"
            "                  'threads': threading.active_count()}))\n"
        )
        namespace = {}
        exec(DEFAULT_COMB_CODE, namespace)
        expect = synthesize_waveform(namespace["comb"], namespace["grid"])
        sha = hashlib.sha256(expect.tobytes()).hexdigest()
        assert json.loads(run_python(code)) == {"sha": sha, "threads": 1}

    def test_memory_does_not_grow_with_channel_count(self):
        # 41 channels x 2**18 samples: that matrix alone would take 172 MB
        cfg = raman_320_config()
        comb = build_comb(cfg, ks=range(-20, 21))
        grid = TimeGrid(2**18, 0.4e-15)
        tracemalloc.start()
        try:
            synthesize_waveform(comb, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6, f"peak {peak / 1e6:.0f} MB"


class TestTrainPeriod:
    def test_pure_cosine(self):
        omega = 2.0 * math.pi * 5e12
        grid = TimeGrid(8192, 2.0e-15)
        series = 1.0 + np.cos(omega * grid.times)
        expect = 2.0 * math.pi / omega
        assert train_period(series, grid.dt) == pytest.approx(expect, rel=0.005, abs=0.0)

    @pytest.mark.parametrize("nt", [4096, 16384, 65536])
    def test_cosine_of_non_integer_period(self, nt):
        # 260.6 samples a period, so no record holds a whole number of them:
        # a circular autocorrelation reads up to 1.3% short here
        grid = TimeGrid(nt, 0.4e-15)
        series = 1.0 + np.cos(2.0 * math.pi * grid.times / RAMAN_PERIOD)
        # abs=0: approx's default 1e-12 s would pass any period
        assert train_period(series, grid.dt) == pytest.approx(RAMAN_PERIOD, rel=5e-4, abs=0.0)

    def test_smooth_hump_has_no_period(self):
        grid = TimeGrid(4096, 1.0e-15)
        series = np.exp(-((grid.times / 300e-15) ** 2))
        with pytest.raises(NonPeriodicError):
            train_period(series, grid.dt)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(32, 1e-15)
        with pytest.raises(ValueError):
            TimeGrid(128, -1e-15)
