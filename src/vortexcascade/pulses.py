"""Temporal models: chirped-pulse pair beating and comb waveform synthesis.

A pair of identical linearly chirped pulses delayed by t_d beats at
b*t_d during their overlap; matching that beat to the Raman frequency is
what drives a single mode selectively. Independently, a sideband comb with
spacing omega_R synthesizes a pulse train of period 2*pi/omega_R.

The comb synthesis splits its samples into blocks of 2**13. Threads of a
pool sized to the CPUs the process may run on, and the calling thread,
claim blocks until none is left. Each block sums every channel in channel
order and squares its own slice, so no sum crosses a block boundary and the
waveform's bits do not depend on the number of CPUs. The pool starts on the
first record longer than one block on a process with two or more CPUs;
importing the module starts no thread.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cascade import SpectralComb
from .errors import AliasingError, NonPeriodicError

# std/mean below which a series is constant up to float64 rounding (about
# 1e-16 for a single-line comb); its autocorrelation then holds only noise
_ROUNDING_SPREAD = 1.0e-12

# samples per block of the comb synthesis: a block's slices of the synthesis
# arrays (320 KiB) stay in a core's cache across every channel
_BLOCK = 2**13

_pool = None
_pool_lock = threading.Lock()


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


def synthesize_waveform(comb: SpectralComb, grid: TimeGrid) -> np.ndarray:
    """Intensity |sum_k exp(-i omega_k t)|^2 on the grid.

    Every channel is a unit line with zero phase. For an equally spaced
    comb the result is a pulse train with period 2*pi/spacing.
    """
    if len(comb) == 0:
        raise ValueError("comb has no channels")
    omegas = np.array([c.omega for c in comb])
    if float(np.max(np.abs(omegas))) * grid.dt >= math.pi:
        raise AliasingError(
            f"max channel frequency {np.max(np.abs(omegas)):g} rad/s aliases at "
            f"dt={grid.dt:g} s"
        )
    t = grid.times
    # the caller makes every array and the blocks write only into their own
    # slices: buffers made in pool threads would land in per-thread heaps
    # and raise the process's peak memory
    x = np.empty_like(t)
    phasor = np.empty(t.shape, dtype=np.complex128)
    field = np.zeros_like(phasor)
    intensity = np.empty_like(t)

    def synthesize_block(i: int) -> None:
        # one channel at a time, in channel order: the same additions as
        # summing the channels x samples matrix over its rows, without
        # holding it. Each phasor is cos(x) + i*sin(x) of x = -omega*t, the
        # value exp(-1j*omega*t) takes, without a complex exponential
        s = slice(i * _BLOCK, (i + 1) * _BLOCK)
        ts, xs, ps, fs = t[s], x[s], phasor[s], field[s]
        for omega in omegas:
            np.multiply(-omega, ts, out=xs)
            np.cos(xs, out=ps.real)
            np.sin(xs, out=ps.imag)
            fs += ps
        np.abs(fs, out=intensity[s])
        np.square(intensity[s], out=intensity[s])

    _run_blocks(synthesize_block, -(-t.size // _BLOCK))
    return intensity


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(run, nblocks: int) -> None:
    """Call run(i) once for each i in range(nblocks), on every usable CPU.

    The caller and up to one pool thread per other CPU claim indices from
    one counter. Returns once every claimed block is done; raises the error
    of a block that failed.
    """
    claim = itertools.count()

    def drain():
        for i in claim:
            if i >= nblocks:
                return
            run(i)

    cpus = _usable_cpus()
    helpers = min(cpus, nblocks) - 1
    futures = []
    if helpers > 0:
        pool = _worker_pool(cpus - 1)
        futures = [pool.submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        # a helper still queued behind other callers' work has nothing left
        # to claim; one that started is waited for
        for future in futures:
            if not future.cancel():
                future.result()


def _worker_pool(workers: int):
    """The process's block pool, made on first use with this many threads."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here, so that a process that never reaches the pool
            # (every command but pulse) does not load it
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(workers, thread_name_prefix="vortexcascade-block")
            if hasattr(os, "register_at_fork"):
                os.register_at_fork(after_in_child=_forget_pool)
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool but none of its threads: work handed
    # to it would sit in its queue for good, holding the caller's arrays
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


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
