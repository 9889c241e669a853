"""Cascaded Raman sideband ladder: frequency and topological-charge rules.

Each anti-Stokes order adds one pump quantum and removes one Stokes quantum
from the previous order, so phases obey a two-term recursion whose closed
forms are affine on a single signed ladder index k:

    omega(k) = omega_s + k*(omega_p - omega_s)
    ell(k)   = ell_s   + k*(ell_p   - ell_s)

with Stokes seed at k=0, pump at k=1, AS_n at k=n+1 and S_n at k=-n.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass

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


@dataclass(frozen=True)
class SidebandLabel:
    """Identity of one comb line: its ladder index k (S 0, P 1, AS_n n+1, S_n -n)."""

    k: int

    @classmethod
    def from_ladder_index(cls, k: int) -> "SidebandLabel":
        """SidebandLabel(k), the one spelling in the package; this alias
        remains only because the benchmark's worker still calls it."""
        return cls(k)

    @classmethod
    def parse(cls, text: str) -> "SidebandLabel":
        t = text.strip().upper()
        if t in ("S", "P"):
            return cls(0 if t == "S" else 1)
        m = re.fullmatch(r"(AS|S)(\d+)", t)
        n = int(m.group(2)) if m else 0
        if n >= 1:
            return cls(n + 1 if m.group(1) == "AS" else -n)
        raise ValueError(f"unrecognized sideband label {text!r}")

    def __str__(self) -> str:
        if self.k >= 2:
            return f"AS{self.k - 1}"
        if self.k <= -1:
            return f"S{-self.k}"
        return "P" if self.k == 1 else "S"


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
    total = sideband_charge(cfg, SidebandLabel(-n)) + sideband_charge(cfg, SidebandLabel(n + 1))
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

    The product is built in place in the result's array: it holds p_hat**a,
    and the other factor, scaled, conjugated and powered, is multiplied in
    one row block (GridSpec.row_blocks) at a time, so that factor is never
    whole. Each step is the elementwise operation that p_hat**a *
    conj(s_hat)**b / sqrt(power) (or its Stokes mirror) performs, and power
    is one sum over the whole product, so the result equals that expression
    bit for bit. The overlap guard's two sums of |factor|**4 are taken per
    block; they only set the refusal threshold. The powers use the **=
    operator, which takes numpy's fast paths for small exponents as ** does;
    np.power(x, n, out=x) does not, and can differ in the last bit.
    """
    if pump_field.spec != stokes_field.spec:
        raise GridMismatchError(
            f"pump grid {pump_field.spec} != stokes grid {stokes_field.spec}"
        )
    k = label.k
    omega = _ladder_frequency_from_fields(pump_field, stokes_field, k)
    # unit peak keeps high powers of the fields away from float overflow;
    # the final normalization makes the scaling choice irrelevant
    product = pump_field.values / max(pump_field.peak, 1e-300)
    s_peak = max(stokes_field.peak, 1e-300)
    if k >= 1:
        a, b = k, k - 1
    else:
        a, b = -k, 1 - k
        np.conj(product, out=product)
    product **= a

    def fourth_power_sum(factor: np.ndarray) -> float:
        # squares the powered factor's magnitude twice
        magnitude = np.abs(factor)
        magnitude **= 2
        magnitude **= 2
        return float(np.sum(magnitude))

    # Scale-free overlap: Cauchy-Schwarz ratio of the two factor magnitudes;
    # 1 when the pump and Stokes intensities coincide, ~0 when disjoint.
    pump_sq = stokes_sq = 0.0
    for rows in pump_field.spec.row_blocks():
        s_hat = stokes_field.values[rows] / s_peak
        if k >= 1:
            np.conj(s_hat, out=s_hat)
        s_hat **= b
        block = product[rows]
        pump_sq += fourth_power_sum(block)
        stokes_sq += fourth_power_sum(s_hat)
        block *= s_hat
    area = pump_field.spec.cell_area
    pump_sq *= area
    stokes_sq *= area
    magnitude = np.abs(product)
    magnitude **= 2
    power = float(np.sum(magnitude)) * area
    overlap = power / max(math.sqrt(pump_sq * stokes_sq), 1e-300)
    if power < 1e-300 or overlap < 1e-12:
        raise DegenerateOverlapError(
            f"beams do not overlap enough to source {label} "
            f"(overlap measure {overlap:.2e})"
        )
    product /= math.sqrt(power)
    return ComplexFieldGrid(pump_field.spec, wavelength_from_omega(omega), product, _adopt=True)


def observed_sideband(
    pump_field: ComplexFieldGrid,
    stokes_field: ComplexFieldGrid,
    label: SidebandLabel,
) -> ComplexFieldGrid:
    """Sideband as seen in the observation (focal) plane downstream.

    The camera sits in the far field of the interaction region, which is
    where the ring-size growth across orders shows up; the interaction-plane
    product itself has an order-independent peak radius. far_field's one
    focal plane, lambda*f = beams.OVERSAMPLE*nx*dx^2, gives each focal
    pattern OVERSAMPLE times the samples an unpadded transform gives it, at
    the source pitch for every order (far_field never reads the
    wavelength): cross-order images share one grid.

    Mirrored orders share one field when the two seeds are the same array
    (an LG mode at its waist does not depend on wavelength, so an ell = 0
    reference set, or a vortex set with ell_p = ell_s): the source of order
    k, p^a*conj(s)^b, is then that of order 1 - k, and its far field is the
    same at every wavelength. mirrored_sideband turns one order's field into
    its partner's; interferometry.analyze_order_panel shares it that way
    within each pair of orders.
    """
    # the product is held nowhere else, so far_field transforms it in place
    product = spatial_sideband(pump_field, stokes_field, label)
    return far_field(product, _in_place=True)


def mirrored_sideband(
    partner: ComplexFieldGrid,
    pump_field: ComplexFieldGrid,
    stokes_field: ComplexFieldGrid,
    label: SidebandLabel,
) -> ComplexFieldGrid:
    """observed_sideband of label, given that of its mirror order 1 - label.k.

    Valid only when pump_field and stokes_field hold the same array and
    partner came from observed_sideband with them: partner's samples, not a
    copy, tagged with label's ladder wavelength (which raises, like
    spatial_sideband, where the ladder ends before label).
    """
    omega = _ladder_frequency_from_fields(pump_field, stokes_field, label.k)
    return partner.with_wavelength(wavelength_from_omega(omega))


@dataclass(frozen=True)
class CombChannel:
    label: SidebandLabel
    omega: float
    ell: int

    @property
    def wavelength(self) -> float:
        return wavelength_from_omega(self.omega)


def build_comb(cfg: RamanConfig, ks=None) -> tuple[CombChannel, ...]:
    """Comb channels at ladder indices ks from the closed-form ladder.

    ks is an increasing run of ladder indices; default S_max_s .. AS_max_as,
    i.e. range(-max_s, max_as + 2). A channel is a frequency and a charge;
    the waveform gives every channel unit amplitude and zero phase. Raises
    NegativeFrequencyError for an index past the ladder's low end.
    """
    if ks is None:
        ks = range(-cfg.max_s, cfg.max_as + 2)
    channels = []
    for k in ks:
        label = SidebandLabel(k)
        channels.append(
            CombChannel(
                label=label,
                omega=sideband_frequency(cfg, label),
                ell=sideband_charge(cfg, label),
            )
        )
    return tuple(channels)
