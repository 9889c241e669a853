"""Temporal models: chirped-pulse pair beating and comb waveform synthesis.

A pair of identical linearly chirped pulses delayed by t_d beats at
b*t_d during their overlap; matching that beat to the Raman frequency is
what drives a single mode selectively. Independently, a sideband comb with
spacing omega_R synthesizes a pulse train of period 2*pi/omega_R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cascade import SpectralComb
from .errors import AliasingError, NonPeriodicError

# std/mean below which a series is constant up to float64 rounding (about
# 1e-16 for a single-line comb); its autocorrelation then holds only noise
_ROUNDING_SPREAD = 1.0e-12


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples; t = t_start + i*dt."""

    nt: int
    dt: float
    t_start: float | None = None

    def __post_init__(self):
        if self.nt < 64:
            raise ValueError(f"need at least 64 samples, got {self.nt}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_start is None:
            object.__setattr__(self, "t_start", -(self.nt // 2) * self.dt)

    @cached_property
    def times(self) -> np.ndarray:
        return self.t_start + np.arange(self.nt) * self.dt

    @property
    def span(self) -> float:
        return self.nt * self.dt


@dataclass(frozen=True)
class ChirpedPulsePair:
    """Two identical linearly chirped Gaussians, the second delayed by t_d.

    Single-pulse field: E(t) = exp(-t^2/(2 tau^2) + i b t^2 / 2), so the
    instantaneous frequency is b*t and the pair's overlap region beats at
    exactly b*t_d.
    """

    tau: float
    b: float
    t_d: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.t_d < 0:
            raise ValueError(f"delay must be non-negative, got {self.t_d}")


def beat_frequency(pair: ChirpedPulsePair) -> float:
    """Envelope beat b*t_d, the quantity matched to the Raman frequency."""
    return pair.b * pair.t_d


def delay_for_beat(b: float, omega_target: float) -> float:
    """Delay making b*t_d hit the target frequency."""
    if b == 0:
        raise ValueError("chirp rate must be nonzero to match a beat")
    t_d = omega_target / b
    if t_d < 0:
        raise ValueError("chirp sign produces a negative delay for this target")
    return t_d


def _single_chirped(pair: ChirpedPulsePair, t: np.ndarray) -> np.ndarray:
    envelope = np.exp(-(t**2) / (2.0 * pair.tau**2))
    return envelope * np.exp(1j * (0.5 * pair.b * t**2))


def chirped_pair_field(pair: ChirpedPulsePair, grid: TimeGrid) -> np.ndarray:
    """Complex analytic field of the delayed pair sampled on the grid."""
    t = grid.times
    if grid.span < 4.0 * pair.tau:
        raise ValueError(
            f"grid span {grid.span:g} s under 4 envelope durations ({4 * pair.tau:g} s)"
        )
    if t[0] > -2.0 * pair.tau or t[-1] < pair.t_d + 2.0 * pair.tau:
        raise ValueError("grid does not cover both pulses with a 2*tau margin")
    t_edge = max(abs(t[0]), abs(t[-1]))
    w_max = abs(pair.b) * t_edge
    if w_max * grid.dt >= math.pi:
        raise AliasingError(
            f"instantaneous frequency up to {w_max:g} rad/s aliases at dt={grid.dt:g} s"
        )
    return _single_chirped(pair, t) + _single_chirped(pair, t - pair.t_d)


def synthesize_waveform(
    comb: SpectralComb, grid: TimeGrid, phases: np.ndarray | None = None
) -> np.ndarray:
    """Intensity |sum_k A_k exp(-i omega_k t + i phi_k)|^2 on the grid.

    phases holds one value per channel, in channel order; default all zero.
    For an equally spaced flat-phase comb the result is a pulse train with
    period 2*pi/spacing.
    """
    if len(comb) == 0:
        raise ValueError("comb has no channels")
    if phases is None:
        phases = np.zeros(len(comb))
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (len(comb),):
        raise ValueError(f"need {len(comb)} phases, got shape {phases.shape}")
    omegas = np.array([c.omega for c in comb])
    if float(np.max(np.abs(omegas))) * grid.dt >= math.pi:
        raise AliasingError(
            f"max channel frequency {np.max(np.abs(omegas)):g} rad/s aliases at "
            f"dt={grid.dt:g} s"
        )
    amps = np.array([c.amplitude for c in comb]) * np.exp(1j * phases)
    t = grid.times
    # one channel at a time, in channel order: the same additions as summing
    # the channels x samples matrix over its rows, without holding it
    field = amps[0] * np.exp(-1j * omegas[0] * t)
    for amp, omega in zip(amps[1:], omegas[1:]):
        field += amp * np.exp(-1j * omega * t)
    return np.abs(field) ** 2


def envelope_modulation_frequency(series: np.ndarray, dt: float) -> float:
    """Dominant modulation frequency (rad/s) of an intensity series.

    Peak of |FFT| excluding the DC/hull region (a few bins, scaled with the
    record length); parabolic sub-bin refinement. Raises when nothing stands
    out of the hull.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    spectrum = np.abs(np.fft.rfft(series - series.mean()))
    guard = max(3, n // 512)
    if spectrum.size <= guard + 2:
        raise NonPeriodicError("series too short to resolve a modulation peak")
    body = spectrum[guard:-1]
    j = int(np.argmax(body)) + guard
    significant = spectrum[j] >= 5.0 * float(np.median(spectrum[guard:])) and spectrum[
        j
    ] >= 1e-6 * float(spectrum.max())
    if not significant:
        raise NonPeriodicError("no significant modulation peak above the hull")
    lo, mid, hi = spectrum[j - 1], spectrum[j], spectrum[j + 1]
    denom = lo - 2.0 * mid + hi
    delta = 0.0 if denom == 0 else float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))
    freq_cycles = (j + delta) / (n * dt)
    return 2.0 * math.pi * freq_cycles


def train_period(series: np.ndarray, dt: float) -> float:
    """Period of a pulse train via its strongest autocorrelation echo.

    Takes the smallest-lag local maximum within 2x of the strongest echo
    (echoes of a periodic train are near-equal, so this picks the fundamental)
    and refines it parabolically. Raises when the series is constant up to
    rounding or no echo exists.
    """
    series = np.asarray(series, dtype=float)
    n = series.size
    if n < 16:
        raise NonPeriodicError("series too short")
    a = series - series.mean()
    if np.std(a) <= _ROUNDING_SPREAD * abs(series.mean()):
        raise NonPeriodicError("series is constant up to rounding")
    ac = np.fft.irfft(np.abs(np.fft.rfft(a)) ** 2, n=n)
    half = ac[: n // 2]
    interior = np.arange(2, half.size - 1)
    is_max = (half[interior] > half[interior - 1]) & (half[interior] >= half[interior + 1])
    peaks = interior[is_max]
    peaks = peaks[half[peaks] > 0.05 * half[0]]
    if peaks.size == 0:
        raise NonPeriodicError("no periodic structure in the series")
    strongest = float(np.max(half[peaks]))
    fundamental = int(peaks[half[peaks] >= 0.5 * strongest][0])
    lo, mid, hi = half[fundamental - 1], half[fundamental], half[fundamental + 1]
    denom = lo - 2.0 * mid + hi
    delta = 0.0 if denom == 0 else float(np.clip(0.5 * (lo - hi) / denom, -0.5, 0.5))
    return (fundamental + delta) * dt
