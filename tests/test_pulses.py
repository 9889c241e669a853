"""Chirped-pulse beating and comb waveform synthesis."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vortexcascade import (
    ChirpedPulsePair,
    RamanConfig,
    SidebandLabel,
    TimeGrid,
    beat_frequency,
    chirped_pair_field,
    envelope_modulation_frequency,
    synthesize_waveform,
    train_period,
)
from vortexcascade.cascade import (
    CombChannel,
    SpectralComb,
    build_comb,
    sideband_charge,
    sideband_frequency,
)
from vortexcascade.errors import AliasingError, NonPeriodicError
from vortexcascade.pulses import delay_for_beat
from vortexcascade.units import omega_from_wavenumber_cm

# oracle: nu = c*nu_tilde with c = 2.998e10 cm/s gives 9.594 THz and a
# 104.24 fs period for the 320 cm^-1 mode
RAMAN_CM = 320.0
OMEGA_R = omega_from_wavenumber_cm(RAMAN_CM)
RAMAN_PERIOD = 1.0 / (2.998e10 * RAMAN_CM)

CHIRP_B = 1.0e26  # rad/s^2


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


def five_channel_comb():
    cfg = raman_320_config()
    channels = tuple(
        CombChannel(
            label=SidebandLabel.from_ladder_index(k),
            omega=sideband_frequency(cfg, SidebandLabel.from_ladder_index(k)),
            ell=sideband_charge(cfg, SidebandLabel.from_ladder_index(k)),
            amplitude=1.0 + 0.0j,
        )
        for k in range(-2, 3)
    )
    return SpectralComb(channels)


class TestBeatFrequency:
    def test_zero_delay_zero_beat(self):
        assert beat_frequency(ChirpedPulsePair(tau=1e-12, b=CHIRP_B, t_d=0.0)) == 0.0

    def test_matching_delay_recovers_raman_frequency(self):
        pair = matched_pair()
        assert beat_frequency(pair) == OMEGA_R
        assert pair.t_d == pytest.approx(OMEGA_R / CHIRP_B)

    def test_raman_frequency_and_period_values(self):
        assert OMEGA_R / (2.0 * math.pi) == pytest.approx(9.594e12, rel=1e-4)
        assert 2.0 * math.pi / OMEGA_R == pytest.approx(104.2e-15, rel=1e-3)
        assert 2.0 * math.pi / OMEGA_R == pytest.approx(RAMAN_PERIOD, rel=1e-3)

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
        with pytest.raises(NonPeriodicError):
            envelope_modulation_frequency(intensity, grid.dt)

    def test_matched_pair_beats_at_b_times_td(self):
        # oracle: peak of |FFT(|E|^2)| excluding the DC hull
        pair = matched_pair()
        grid = pair_grid(pair)
        intensity = np.abs(chirped_pair_field(pair, grid)) ** 2
        peak = envelope_modulation_frequency(intensity, grid.dt)
        one_bin = 2.0 * math.pi / (grid.nt * grid.dt)
        assert abs(peak - beat_frequency(pair)) < one_bin

    def test_modulation_period_matches_raman_period(self):
        pair = matched_pair()
        grid = pair_grid(pair)
        intensity = np.abs(chirped_pair_field(pair, grid)) ** 2
        period = 2.0 * math.pi / envelope_modulation_frequency(intensity, grid.dt)
        assert period == pytest.approx(RAMAN_PERIOD, rel=0.01)
        assert train_period(intensity, grid.dt) == pytest.approx(RAMAN_PERIOD, rel=0.01)

    def test_span_guard(self):
        pair = matched_pair(tau=2e-12)
        with pytest.raises(ValueError):
            chirped_pair_field(pair, TimeGrid(128, 1e-15))

    def test_instantaneous_frequency_guard(self):
        pair = ChirpedPulsePair(tau=800e-15, b=1e30, t_d=100e-15)
        with pytest.raises(AliasingError):
            chirped_pair_field(pair, TimeGrid(8192, 1.0e-15))


class TestSynthesizeWaveform:
    def test_single_channel_is_constant(self):
        comb = SpectralComb((five_channel_comb().channels[2],))
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
        single = synthesize_waveform(SpectralComb((comb.channels[0],)), grid)
        assert intensity.max() == pytest.approx(25.0 * single.mean(), rel=1e-9)

    def test_energy_parseval(self):
        # an integer number of train periods makes the cross terms vanish
        comb = five_channel_comb()
        spacing = comb.channels[1].omega - comb.channels[0].omega
        period = 2.0 * math.pi / spacing
        nt = 8192
        dt = 32 * period / nt  # exactly 32 periods in the record
        grid = TimeGrid(nt, dt)
        intensity = synthesize_waveform(comb, grid)
        energy = float(np.sum(intensity)) * dt
        expect = sum(abs(c.amplitude) ** 2 for c in comb) * nt * dt
        assert energy == pytest.approx(expect, rel=1e-6)

    def test_global_phase_leaves_intensity_unchanged(self):
        comb = five_channel_comb()
        grid = TimeGrid(4096, 0.4e-15)
        base = synthesize_waveform(comb, grid)
        shifted = synthesize_waveform(comb, grid, phases=np.full(5, 1.234))
        assert np.allclose(base, shifted, rtol=1e-12, atol=1e-12 * base.max())

    def test_linear_phase_translates_the_train(self):
        comb = five_channel_comb()
        spacing = comb.channels[1].omega - comb.channels[0].omega
        nt, dt = 8192, 0.4e-15
        grid = TimeGrid(nt, dt)
        shift_samples = 40
        # phase k*psi with psi = spacing*t0 translates by t0 = 40 samples
        psi = spacing * shift_samples * dt
        ks = np.arange(-2, 3)
        base = synthesize_waveform(comb, grid)
        moved = synthesize_waveform(comb, grid, phases=ks * psi)
        # compare interiors; the train is time- but not record-periodic
        assert np.allclose(
            moved[shift_samples:], base[:-shift_samples], rtol=1e-9, atol=1e-9 * base.max()
        )
        assert train_period(moved, dt) == pytest.approx(train_period(base, dt), rel=1e-6)

    def test_nyquist_guard(self):
        comb = five_channel_comb()
        with pytest.raises(AliasingError):
            synthesize_waveform(comb, TimeGrid(4096, 2.0e-15))

    def test_equals_channel_matrix_sum(self):
        # oracle: the channels x samples matrix, summed over its rows
        comb = build_comb(raman_320_config())
        grid = TimeGrid(4096, 0.4e-15)
        phases = np.linspace(0.3, 2.1, len(comb))
        omegas = np.array([c.omega for c in comb])
        amps = np.array([c.amplitude for c in comb]) * np.exp(1j * phases)
        t = grid.times
        matrix = amps[:, None] * np.exp(-1j * omegas[:, None] * t[None, :])
        expect = np.abs(matrix.sum(axis=0)) ** 2
        assert np.array_equal(synthesize_waveform(comb, grid, phases), expect)

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

    def test_phase_count_validated(self):
        comb = five_channel_comb()
        with pytest.raises(ValueError):
            synthesize_waveform(comb, TimeGrid(4096, 0.4e-15), phases=np.zeros(3))


class TestTrainPeriod:
    def test_pure_cosine(self):
        omega = 2.0 * math.pi * 5e12
        grid = TimeGrid(8192, 2.0e-15)
        series = 1.0 + np.cos(omega * grid.times)
        assert train_period(series, grid.dt) == pytest.approx(2.0 * math.pi / omega, rel=0.005)

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
