"""Cascaded Raman sideband ladder: frequency and topological-charge rules.

Each anti-Stokes order adds one pump quantum and removes one Stokes quantum
from the previous order, so phases obey a two-term recursion whose closed
forms are affine on a single signed ladder index k:

    omega(k) = omega_s + k*(omega_p - omega_s)
    ell(k)   = ell_s   + k*(ell_p   - ell_s)

with Stokes seed at k=0, pump at k=1, AS_n at k=n+1 and S_n at k=-n.
"""

from __future__ import annotations

import enum
import math
import re
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .beams import far_field
from .errors import (
    DegenerateOverlapError,
    DetuningWarning,
    GridMismatchError,
    NegativeFrequencyError,
)
from .grids import ComplexFieldGrid
from .units import omega_from_wavelength, wavelength_from_omega


class SidebandKind(enum.Enum):
    PUMP = "P"
    STOKES = "S"
    ANTI_STOKES = "AS"
    STOKES_ORDER = "Sn"


@dataclass(frozen=True)
class SidebandLabel:
    """Identity of one comb line: the seed beams or a generated order."""

    kind: SidebandKind
    n: int = 0

    def __post_init__(self):
        if self.kind in (SidebandKind.ANTI_STOKES, SidebandKind.STOKES_ORDER):
            if self.n < 1:
                raise ValueError(f"order must be >= 1, got {self.n}")
        elif self.n != 0:
            raise ValueError(f"{self.kind.name} takes no order, got n={self.n}")

    @property
    def k(self) -> int:
        """Ladder index: Stokes 0, pump 1, AS_n n+1, S_n -n."""
        if self.kind is SidebandKind.STOKES:
            return 0
        if self.kind is SidebandKind.PUMP:
            return 1
        if self.kind is SidebandKind.ANTI_STOKES:
            return self.n + 1
        return -self.n

    @classmethod
    def from_ladder_index(cls, k: int) -> "SidebandLabel":
        if k == 0:
            return cls(SidebandKind.STOKES)
        if k == 1:
            return cls(SidebandKind.PUMP)
        if k >= 2:
            return cls(SidebandKind.ANTI_STOKES, k - 1)
        return cls(SidebandKind.STOKES_ORDER, -k)

    @classmethod
    def pump(cls) -> "SidebandLabel":
        return cls(SidebandKind.PUMP)

    @classmethod
    def stokes(cls) -> "SidebandLabel":
        return cls(SidebandKind.STOKES)

    @classmethod
    def anti_stokes(cls, n: int) -> "SidebandLabel":
        return cls(SidebandKind.ANTI_STOKES, n)

    @classmethod
    def stokes_order(cls, n: int) -> "SidebandLabel":
        return cls(SidebandKind.STOKES_ORDER, n)

    @classmethod
    def parse(cls, text: str) -> "SidebandLabel":
        t = text.strip().upper()
        if t == "P":
            return cls.pump()
        if t == "S":
            return cls.stokes()
        m = re.fullmatch(r"AS(\d+)", t)
        if m:
            return cls.anti_stokes(int(m.group(1)))
        m = re.fullmatch(r"S(\d+)", t)
        if m:
            return cls.stokes_order(int(m.group(1)))
        raise ValueError(f"unrecognized sideband label {text!r}")

    def __str__(self) -> str:
        if self.kind is SidebandKind.PUMP:
            return "P"
        if self.kind is SidebandKind.STOKES:
            return "S"
        if self.kind is SidebandKind.ANTI_STOKES:
            return f"AS{self.n}"
        return f"S{self.n}"


@dataclass(frozen=True)
class RamanConfig:
    """Seed frequencies/charges and the Raman mode being driven.

    The pump-Stokes difference should sit near omega_raman; a relative
    detuning above 10% draws a warning (the experiment tunes via delay, so
    exact equality is not enforced).
    """

    omega_p: float
    omega_s: float
    ell_p: int
    ell_s: int
    omega_raman: float
    max_as: int = 20
    max_s: int = 20

    def __post_init__(self):
        if not (self.omega_p > self.omega_s > 0):
            raise ValueError(
                f"need omega_p > omega_s > 0, got ({self.omega_p:g}, {self.omega_s:g})"
            )
        if self.omega_raman <= 0:
            raise ValueError(f"omega_raman must be positive, got {self.omega_raman}")
        if self.max_as < 0 or self.max_s < 0:
            raise ValueError("order limits must be non-negative")
        detuning = abs((self.omega_p - self.omega_s) - self.omega_raman) / self.omega_raman
        if detuning > 0.1:
            warnings.warn(
                f"pump-Stokes difference detuned {detuning:.0%} from the Raman mode",
                DetuningWarning,
                stacklevel=2,
            )

    @property
    def delta_omega(self) -> float:
        return self.omega_p - self.omega_s


def sideband_frequency(cfg: RamanConfig, label: SidebandLabel) -> float:
    """Closed-form ladder frequency omega_s + k*(omega_p - omega_s)."""
    omega = cfg.omega_s + label.k * cfg.delta_omega
    if omega <= 0:
        raise NegativeFrequencyError(
            f"{label} would sit at {omega:g} rad/s; the ladder ends before it"
        )
    return omega


def sideband_charge(cfg: RamanConfig, label: SidebandLabel) -> int:
    """Closed-form ladder charge ell_s + k*(ell_p - ell_s)."""
    return cfg.ell_s + label.k * (cfg.ell_p - cfg.ell_s)


def cascade_phase_recursion(cfg: RamanConfig, label: SidebandLabel) -> tuple[float, int]:
    """(frequency, charge) by literally iterating the cascade recursion.

    AS_n inherits phi_p + phi_AS(n-1) - phi_s starting from the pump;
    Stokes orders mirror it. Kept independent of the closed forms on purpose:
    the two must agree for every order. The iteration state is held as
    integer coefficients (a, b) of (omega_p, omega_s) so it stays exact.
    """
    k = label.k
    if k >= 1:
        a, b = 1, 0  # the pump itself
        for _ in range(k - 1):
            a, b = a + 1, b - 1
    else:
        a, b = 0, 1  # the Stokes seed
        for _ in range(-k):
            a, b = a - 1, b + 1
    omega = a * cfg.omega_p + b * cfg.omega_s
    if omega <= 0:
        raise NegativeFrequencyError(
            f"{label} would sit at {omega:g} rad/s; the ladder ends before it"
        )
    return omega, a * cfg.ell_p + b * cfg.ell_s


def conservation_check(cfg: RamanConfig, n: int) -> bool:
    """True iff charge(S_n) + charge(AS_n) equals ell_s + ell_p."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    total = sideband_charge(cfg, SidebandLabel.stokes_order(n)) + sideband_charge(
        cfg, SidebandLabel.anti_stokes(n)
    )
    return total == cfg.ell_s + cfg.ell_p


def _ladder_frequency_from_fields(
    pump: ComplexFieldGrid, stokes: ComplexFieldGrid, k: int
) -> float:
    omega_p = omega_from_wavelength(pump.wavelength)
    omega_s = omega_from_wavelength(stokes.wavelength)
    omega = omega_s + k * (omega_p - omega_s)
    if omega <= 0:
        raise NegativeFrequencyError(
            f"ladder index {k} reaches {omega:g} rad/s for these input colors"
        )
    return omega


def spatial_sideband(
    pump_field: ComplexFieldGrid,
    stokes_field: ComplexFieldGrid,
    label: SidebandLabel,
) -> ComplexFieldGrid:
    """Lowest-order source term for one sideband at the interaction plane.

    AS_n is the pointwise product u_p^(n+1) * conj(u_s)^n and Stokes orders
    mirror it, so the measured charge of the output always matches the integer
    ladder rule. The result is normalized to unit power and tagged with the
    ladder frequency derived from the input wavelengths.
    """
    if pump_field.spec != stokes_field.spec:
        raise GridMismatchError(
            f"pump grid {pump_field.spec} != stokes grid {stokes_field.spec}"
        )
    k = label.k
    omega = _ladder_frequency_from_fields(pump_field, stokes_field, k)
    # unit peak keeps high powers of the fields away from float overflow;
    # the final normalization makes the scaling choice irrelevant
    p_hat = pump_field.values / max(float(np.abs(pump_field.values).max()), 1e-300)
    s_hat = stokes_field.values / max(float(np.abs(stokes_field.values).max()), 1e-300)
    if k >= 1:
        a, b = k, k - 1
        product = p_hat**a * np.conj(s_hat) ** b
    else:
        a, b = -k, 1 - k
        product = np.conj(p_hat) ** a * s_hat**b
    area = pump_field.spec.cell_area
    power = float(np.sum(np.abs(product) ** 2)) * area
    # Scale-free overlap: Cauchy-Schwarz ratio of the two factor magnitudes;
    # 1 when the pump and Stokes intensities coincide, ~0 when disjoint.
    pump_sq = float(np.sum(np.abs(p_hat) ** (4 * a))) * area
    stokes_sq = float(np.sum(np.abs(s_hat) ** (4 * b))) * area
    overlap = power / max(math.sqrt(pump_sq * stokes_sq), 1e-300)
    if power < 1e-300 or overlap < 1e-12:
        raise DegenerateOverlapError(
            f"beams do not overlap enough to source {label} "
            f"(overlap measure {overlap:.2e})"
        )
    return ComplexFieldGrid(
        pump_field.spec, wavelength_from_omega(omega), product / math.sqrt(power)
    )


def observed_sideband(
    pump_field: ComplexFieldGrid,
    stokes_field: ComplexFieldGrid,
    label: SidebandLabel,
    oversample: int = 1,
) -> ComplexFieldGrid:
    """Sideband as seen in the observation (focal) plane downstream.

    The camera sits in the far field of the interaction region, which is
    where the ring-size growth across orders shows up; the interaction-plane
    product itself has an order-independent peak radius. far_field's default
    focal length makes the observation grid pitch equal the source pitch for
    every order, so cross-order images share one grid.
    """
    product = spatial_sideband(pump_field, stokes_field, label)
    return far_field(product, oversample=oversample)


@dataclass(frozen=True)
class CombChannel:
    label: SidebandLabel
    omega: float
    ell: int
    amplitude: complex

    @property
    def k(self) -> int:
        return self.label.k

    @property
    def wavelength(self) -> float:
        return wavelength_from_omega(self.omega)


@dataclass(frozen=True)
class SpectralComb:
    """Ordered sideband channels; frequencies and charges must be affine in k."""

    channels: tuple[CombChannel, ...] = dc_field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        ks = [c.k for c in self.channels]
        if ks != sorted(ks) or len(set(ks)) != len(ks):
            raise ValueError("channels must be sorted by ladder index, without repeats")
        if len(self.channels) >= 2:
            omegas = np.array([c.omega for c in self.channels])
            if not np.all(np.diff(omegas) > 0):
                raise ValueError("frequencies must increase with ladder index")
        if len(self.channels) >= 3 and ks == list(range(ks[0], ks[0] + len(ks))):
            ells = [c.ell for c in self.channels]
            if any(ells[i + 1] - 2 * ells[i] + ells[i - 1] != 0 for i in range(1, len(ells) - 1)):
                raise ValueError("charges do not follow the affine ladder rule")

    def __iter__(self):
        return iter(self.channels)

    def __len__(self):
        return len(self.channels)

    def channel(self, label: SidebandLabel) -> CombChannel:
        for c in self.channels:
            if c.label == label:
                return c
        raise KeyError(f"no channel {label}")


def geometric_amplitudes(ratio: float):
    """|A| falls by `ratio` per step away from the pump/Stokes seed pair."""
    if not (0.0 < ratio <= 1.0):
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")

    def model(k: int) -> complex:
        if k >= 2:
            return complex(ratio ** (k - 1))
        if k <= -1:
            return complex(ratio ** (-k))
        return complex(1.0)

    return model


def uniform_amplitudes(k: int) -> complex:
    return complex(1.0)


def build_comb(cfg: RamanConfig, amplitude_model=None, ks=None) -> SpectralComb:
    """Comb channels at ladder indices ks from the closed-form ladder.

    ks is an increasing run of ladder indices; default S_max_s .. AS_max_as,
    i.e. range(-max_s, max_as + 2). amplitude_model maps ladder index ->
    complex amplitude; default is geometric_amplitudes(0.6), a rendering
    choice with no physics attached.
    """
    model = amplitude_model if amplitude_model is not None else geometric_amplitudes(0.6)
    if ks is None:
        ks = range(-cfg.max_s, cfg.max_as + 2)
    channels = []
    for k in ks:
        label = SidebandLabel.from_ladder_index(k)
        channels.append(
            CombChannel(
                label=label,
                omega=sideband_frequency(cfg, label),
                ell=sideband_charge(cfg, label),
                amplitude=complex(model(k)),
            )
        )
    return SpectralComb(tuple(channels))
