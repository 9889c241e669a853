"""Flat key=value run configuration.

Format: one `key = value` per line, `#` starts a comment, blank lines
ignored. Unknown keys and invalid values are rejected with the offending
line number. Spectroscopy-native units (nm, cm^-1, fs, um, mm) are accepted
at the boundary and converted to SI internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from .cascade import RamanConfig, SidebandLabel, sideband_frequency
from .elements import crystal_charges
from .errors import ConfigError, NegativeFrequencyError
from .grids import GridSpec
from .pulses import ChirpedPulsePair, TimeGrid, delay_for_beat
from .units import omega_from_wavelength, omega_from_wavenumber_cm

# samples in a pulse record (the nt key, and the beat record grown from it):
# 2**24 complex samples take 256 MB, and a longer record would be refused
# by the allocator with a traceback rather than by the configuration
MAX_RECORD_SAMPLES = 2**24
# samples per side of the figure3 grid: a 4096**2 complex frame is 256 MB,
# the size of a record at MAX_RECORD_SAMPLES
MAX_GRID_N = 4096


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_int(s: str) -> int:
    return int(s.strip())


def _parse_float(s: str) -> float:
    v = float(s.strip())
    if not math.isfinite(v):
        raise ValueError(f"not finite: {s!r}")
    return v


def _key(
    parse: Callable[[str], Any],
    default: Any,
    check: Callable[[Any], bool] | None = None,
    requirement: str = "",
):
    """A config key: its parser, default, and invariant with its wording."""
    return field(
        default=default,
        metadata={"parse": parse, "check": check, "requirement": requirement},
    )


@dataclass(frozen=True)
class RunConfig:
    """Every config key, with its default; cross-field checks on construction."""

    pump_wavelength_nm: float = _key(_parse_float, 800.0, lambda v: v > 0, "must be positive")
    raman_shift_cm1: float = _key(_parse_float, 320.0, lambda v: v > 0, "must be positive")
    spp_charge: int = _key(_parse_int, 1, lambda v: v != 0, "must be a nonzero integer")
    m5_in: bool = _key(_parse_bool, False)
    grid_n: int = _key(
        _parse_int, 512, lambda v: 8 <= v <= MAX_GRID_N, f"must be between 8 and {MAX_GRID_N}"
    )
    grid_pitch_um: float = _key(_parse_float, 25.0, lambda v: v > 0, "must be positive")
    waist_mm: float = _key(_parse_float, 1.0, lambda v: v > 0, "must be positive")
    fringes: float | None = _key(_parse_float, None, lambda v: v > 0, "must be positive")
    offset_y_mm: float = _key(_parse_float, 0.0)
    max_as: int | None = _key(_parse_int, None, lambda v: v >= 0, "must be non-negative")
    max_s: int | None = _key(_parse_int, None, lambda v: v >= 0, "must be non-negative")
    noise: float = _key(_parse_float, 0.0, lambda v: v >= 0, "must be non-negative")
    seed: int = _key(_parse_int, 0, lambda v: v >= 0, "must be non-negative")
    tau_fs: float = _key(_parse_float, 800.0, lambda v: v > 0, "must be positive")
    chirp_b: float = _key(_parse_float, 1.0e26, lambda v: v != 0, "must be nonzero")
    t_d_fs: float | None = _key(_parse_float, None, lambda v: v >= 0, "must be non-negative")
    match: bool = _key(_parse_bool, False)
    pulse_channels: int = _key(_parse_int, 5, lambda v: v >= 1, "must be at least 1")
    nt: int = _key(
        _parse_int, 16384, lambda v: 64 <= v <= MAX_RECORD_SAMPLES,
        f"must be between 64 and 2**24 = {MAX_RECORD_SAMPLES}",
    )
    dt_fs: float = _key(_parse_float, 0.4, lambda v: v > 0, "must be positive")

    def __post_init__(self):
        if self.omega_stokes <= 0:
            raise ConfigError("raman_shift_cm1 exceeds the pump wavenumber")
        if self.fringes is not None and self.fringes >= self.grid_n / 2:
            raise ConfigError(
                f"fringes {self.fringes:g} puts the carrier at or beyond the Nyquist "
                f"angle: it must stay below grid_n/2 = {self.grid_n / 2:g}"
            )
        # synthesize_interferogram's whole-sample roll of the reference: rolls by
        # s and s - grid_n are one array, so from grid_n/2 on it reads another geometry
        shift = round(self.offset_y / (self.grid_pitch_um * 1e-6))
        if abs(shift) >= self.grid_n / 2:
            raise ConfigError(
                f"offset_y_mm {self.offset_y_mm:g} rolls the reference by {shift} samples: "
                f"the roll must stay under grid_n/2 = {self.grid_n / 2:g}"
            )
        if self.waist < 4.0 * (self.grid_pitch_um * 1e-6):  # lg_mode_field's test
            raise ConfigError(
                f"waist_mm {self.waist_mm:g} is under-resolved: a waist needs at least "
                f"4 samples, 4*grid_pitch_um = {4.0 * self.grid_pitch_um:g} um"
            )

    # -- derived quantities ------------------------------------------------

    @property
    def omega_pump(self) -> float:
        return omega_from_wavelength(self.pump_wavelength_nm * 1e-9)

    @property
    def omega_raman(self) -> float:
        return omega_from_wavenumber_cm(self.raman_shift_cm1)

    @property
    def omega_stokes(self) -> float:
        return self.omega_pump - self.omega_raman

    @property
    def waist(self) -> float:
        return self.waist_mm * 1e-3

    @property
    def offset_y(self) -> float:
        return self.offset_y_mm * 1e-3

    @property
    def tau(self) -> float:
        return self.tau_fs * 1e-15

    @property
    def dt(self) -> float:
        return self.dt_fs * 1e-15

    def grid_spec(self) -> GridSpec:
        return GridSpec.square(self.grid_n, self.grid_pitch_um * 1e-6)

    def charges(self) -> tuple[int, int]:
        """(ell_p, ell_s) at the crystal, set by the SPP charge and the M5 parity."""
        return crystal_charges(self.spp_charge, self.m5_in)

    def raman_config(self, default_max_as: int, default_max_s: int) -> RamanConfig:
        ell_p, ell_s = self.charges()
        return RamanConfig(
            omega_p=self.omega_pump,
            omega_s=self.omega_stokes,
            ell_p=ell_p,
            ell_s=ell_s,
            omega_raman=self.omega_raman,
            max_as=self.max_as if self.max_as is not None else default_max_as,
            max_s=self.max_s if self.max_s is not None else default_max_s,
        )

    def pulse_ks(self) -> range:
        """pulse's ladder indices, k = -(n//2) .. -(n//2) + n - 1 for n = pulse_channels;
        refused, naming the key, where sideband_frequency refuses the lowest line
        (only pulse asks: comb and figure3 never read the key)."""
        n = self.pulse_channels
        lowest = -(n // 2)
        try:
            sideband_frequency(self.raman_config(0, 0), SidebandLabel(lowest))
        except NegativeFrequencyError as exc:
            fits = 2 * math.ceil(self.omega_stokes / (self.omega_pump - self.omega_stokes)) - 1
            raise ConfigError(
                f"S{-lowest} would sit at or below zero frequency, past the ladder's low "
                f"end: pulse_channels must be at most {fits}, got {n}"
            ) from exc
        return range(lowest, lowest + n)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.nt, self.dt)

    def beat_grid(self, pair: ChirpedPulsePair) -> TimeGrid:
        """The beat record: nt doubled until it spans both pulses with margin.

        Centred between the two pulses. Refused before anything is allocated
        when it would grow past MAX_RECORD_SAMPLES.
        """
        span = 1.2 * (4.0 * pair.tau + pair.t_d)
        nt, dt = self.nt, self.dt
        while nt * dt < span:
            nt *= 2
            if nt > MAX_RECORD_SAMPLES:
                raise ConfigError(
                    f"the beat record would grow to {nt} samples or more, past the "
                    f"2**24 = {MAX_RECORD_SAMPLES} limit: it must span "
                    f"1.2*(4*tau + t_d) = {span * 1e15:g} fs at dt_fs={self.dt_fs:g} "
                    f"(tau_fs={self.tau_fs:g}, t_d_fs={pair.t_d * 1e15:g})"
                )
        return TimeGrid(nt, dt, -(nt // 2) * dt + pair.t_d / 2.0)

    def chirped_pair(self) -> ChirpedPulsePair:
        if self.match:
            try:
                t_d = delay_for_beat(self.chirp_b, self.omega_raman)
            except ValueError as exc:
                raise ConfigError(f"chirp_b {self.chirp_b:g}: {exc}") from exc
        elif self.t_d_fs is not None:
            t_d = self.t_d_fs * 1e-15
        else:
            raise ConfigError("need either t_d_fs or match=true")
        return ChirpedPulsePair(tau=self.tau, b=self.chirp_b, t_d=t_d)


# key -> {parse, check, requirement}, read off the RunConfig fields
_SCHEMA = {f.name: f.metadata for f in fields(RunConfig)}


def _parse_item(item: str, line: int | None, malformed: str) -> tuple[str, Any]:
    """(key, value) of one `key=value` item, the value parsed and checked as
    the key's own; ConfigError with the message `malformed` when there is no '='."""
    if "=" not in item:
        raise ConfigError(malformed, line=line)
    key, _, raw = item.partition("=")
    key = key.strip()
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}", line=line)
    try:
        value = _SCHEMA[key]["parse"](raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}", line=line) from exc
    return key, _checked(key, value, line)


def _checked(key: str, value: Any, line: int | None) -> Any:
    """value, if it meets the key's invariant; ConfigError naming the key if not."""
    entry = _SCHEMA[key]
    if entry["check"] is not None and not entry["check"](value):
        raise ConfigError(f"{key} {entry['requirement']}, got {value}", line=line)
    return value


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse `key = value` lines; raises ConfigError with line numbers."""
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        key, value = _parse_item(line, lineno, f"expected 'key = value', got {raw_line!r}")
        values[key] = value
    return values


def load_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, --set overrides and
    the --seed value, each checked as the key's own value is."""
    values: dict[str, Any] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_config_text(p.read_text()))
    for item in overrides or []:
        key, value = _parse_item(item, None, f"--set expects key=value, got {item!r}")
        values[key] = value
    if seed is not None:
        values["seed"] = _checked("seed", seed, None)
    return RunConfig(**values)
