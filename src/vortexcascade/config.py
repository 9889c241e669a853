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

from .cascade import RamanConfig
from .elements import crystal_charges
from .errors import ConfigError
from .grids import GridSpec
from .pulses import ChirpedPulsePair, TimeGrid, delay_for_beat
from .units import omega_from_wavelength, omega_from_wavenumber_cm


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
    ell_p: int | None = _key(_parse_int, None)
    ell_s: int | None = _key(_parse_int, None)
    grid_n: int = _key(_parse_int, 512, lambda v: v >= 8, "must be at least 8")
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
    nt: int = _key(_parse_int, 16384, lambda v: v >= 64, "must be at least 64")
    dt_fs: float = _key(_parse_float, 0.4, lambda v: v > 0, "must be positive")

    def __post_init__(self):
        if (self.ell_p is None) != (self.ell_s is None):
            raise ConfigError("ell_p and ell_s must be given together", key="ell_p")
        if self.omega_stokes <= 0:
            raise ConfigError(
                "raman_shift_cm1 exceeds the pump wavenumber", key="raman_shift_cm1"
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
        """(ell_p, ell_s) at the crystal: explicit values win over the
        SPP-charge/parity flags."""
        if self.ell_p is not None:
            return self.ell_p, self.ell_s
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

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.nt, self.dt)

    def chirped_pair(self) -> ChirpedPulsePair:
        if self.match:
            try:
                t_d = delay_for_beat(self.chirp_b, self.omega_raman)
            except ValueError as exc:
                raise ConfigError(f"chirp_b {self.chirp_b:g}: {exc}", key="chirp_b") from exc
        elif self.t_d_fs is not None:
            t_d = self.t_d_fs * 1e-15
        else:
            raise ConfigError("need either t_d_fs or match=true", key="t_d_fs")
        return ChirpedPulsePair(tau=self.tau, b=self.chirp_b, t_d=t_d)


# key -> {parse, check, requirement}, read off the RunConfig fields
_SCHEMA = {f.name: f.metadata for f in fields(RunConfig)}


def _parse_value(key: str, raw: str, line: int | None) -> Any:
    entry = _SCHEMA[key]
    try:
        value = entry["parse"](raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for {key}: {exc}", key=key, line=line) from exc
    if entry["check"] is not None and not entry["check"](value):
        raise ConfigError(f"{key} {entry['requirement']}, got {value}", key=key, line=line)
    return value


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse `key = value` lines; raises ConfigError with line numbers."""
    values: dict[str, Any] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line!r}", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", key=key, line=lineno)
        values[key] = _parse_value(key, raw, lineno)
    return values


def load_config(
    path: str | Path | None = None,
    overrides: list[str] | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, and --set overrides."""
    values: dict[str, Any] = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        values.update(parse_config_text(p.read_text()))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", key=key)
        values[key] = _parse_value(key, raw, None)
    if seed is not None:
        values["seed"] = seed
    return RunConfig(**values)
