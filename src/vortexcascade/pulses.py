"""Temporal models: chirped-pulse pair beating and comb waveform synthesis.

A pair of identical linearly chirped pulses delayed by t_d beats at
b*t_d during their overlap; matching that beat to the Raman frequency is
what drives a single mode selectively. Independently, a sideband comb with
spacing omega_R synthesizes a pulse train of period 2*pi/omega_R.

The comb's lines have unit amplitude, zero phase and equal spacing D, so
its intensity is the Dirichlet kernel |sum_k exp(-i w_k t)|^2 =
sin^2(N D t/2) / sin^2(D t/2), whatever the lowest line. It is evaluated on
t reduced to its nearest train period, where every peak sits at D t/2 = 0
and sin keeps its relative precision; the synthesis starts no thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AliasingError, NonPeriodicError

# std/mean below which a series is constant up to float64 rounding (about
# 1e-16 for |exp(-i omega t)|^2 as cos^2 + sin^2); its autocorrelation then
# holds only noise
_ROUNDING_SPREAD = 1.0e-12

# spread of a comb's line spacings, relative to its largest frequency, that
# rounding each line to float64 can leave (the built combs' spacings are
# bit-equal); a wider spread is a comb the Dirichlet kernel does not describe
_SPACING_ROUNDING = 4.0 * np.finfo(np.float64).eps


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
    # the phasor as cos + i*sin, the value exp(1j*phase) takes, without a
    # complex exponential, then scaled by the envelope in place
    phase = 0.5 * pair.b * t**2
    field = np.empty(t.shape, np.complex128)
    np.cos(phase, out=field.real)
    np.sin(phase, out=field.imag)
    field *= np.exp(-(t**2) / (2.0 * pair.tau**2))
    return field


def chirped_pair_field(pair: ChirpedPulsePair, grid: TimeGrid) -> np.ndarray:
    """Complex analytic field of the delayed pair sampled on the grid."""
    # the record's ends, bit for bit as grid.times holds them: the checks
    # refuse a record before it is allocated
    t_first, t_last = grid.t_start, grid.t_start + (grid.nt - 1) * grid.dt
    if grid.span < 4.0 * pair.tau:
        raise ValueError(
            f"grid span {grid.span:g} s under 4 envelope durations ({4 * pair.tau:g} s)"
        )
    if t_first > -2.0 * pair.tau or t_last < pair.t_d + 2.0 * pair.tau:
        raise ValueError("grid does not cover both pulses with a 2*tau margin")
    w_max = abs(pair.b) * max(abs(t_first), abs(t_last))
    if w_max * grid.dt >= math.pi:
        raise AliasingError(
            f"instantaneous frequency up to {w_max:g} rad/s aliases at dt={grid.dt:g} s"
        )
    t = grid.times
    return _single_chirped(pair, t) + _single_chirped(pair, t - pair.t_d)


def synthesize_waveform(comb: tuple, grid: TimeGrid) -> np.ndarray:
    """Intensity |sum_k exp(-i omega_k t)|^2 of build_comb's channels on the grid.

    Every channel is a unit line with zero phase, and the lines must be
    equally spaced (ValueError otherwise); AliasingError if the top line
    aliases at grid.dt. The result is the pulse train sin^2(N x)/sin^2(x)
    with x = spacing*t/2, of period 2*pi/spacing, and N^2 where sin(x) is 0.
    """
    if len(comb) == 0:
        raise ValueError("comb has no channels")
    omegas = np.array([c.omega for c in comb])
    if float(np.max(np.abs(omegas))) * grid.dt >= math.pi:
        raise AliasingError(
            f"max channel frequency {np.max(np.abs(omegas)):g} rad/s aliases at "
            f"dt={grid.dt:g} s"
        )
    n = len(omegas)
    if n == 1:  # no spacing: one unit line is 1 everywhere
        return np.ones(grid.nt)
    if np.ptp(np.diff(omegas)) > _SPACING_ROUNDING * float(np.max(np.abs(omegas))):
        raise ValueError("comb lines are not equally spaced")
    half_spacing = 0.5 * (omegas[-1] - omegas[0]) / (n - 1)
    period = math.pi / half_spacing
    t = grid.times
    # x = spacing*t'/2 with t' = t - period*rint(t/period) in [-period/2,
    # period/2]: the peaks sit at x = 0, where sin(x) keeps its relative
    # precision (reduced into [0, period), the peaks near x = pi lose digits)
    x = np.divide(t, period)
    np.rint(x, out=x)
    x *= period
    np.subtract(t, x, out=x)
    x *= half_spacing
    den = np.sin(x)
    x *= n
    kernel = np.sin(x, out=x)
    centre = den == 0.0
    den[centre] = 1.0
    kernel /= den
    kernel[centre] = n
    return np.square(kernel, out=kernel)


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
