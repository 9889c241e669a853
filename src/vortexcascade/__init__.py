"""Coherent orbital-angular-momentum transfer in cascaded Raman sideband
generation: vortex-beam construction, spiral phase plates, the sideband
frequency/charge selection rules, double-source fork interferograms with
automated charge readout, and chirped-pulse/comb temporal synthesis."""

from .beams import (
    BeamParams,
    LGModeIndex,
    decompose,
    far_field,
    gaussian_field,
    lg_mode_field,
    ring_radius,
)
from .cascade import (
    CombChannel,
    RamanConfig,
    SidebandLabel,
    SpectralComb,
    build_comb,
    cascade_phase_recursion,
    conservation_check,
    observed_sideband,
    sideband_charge,
    sideband_frequency,
    spatial_sideband,
)
from .elements import (
    SppSpec,
    apply_spp,
    crystal_charges,
)
from .grids import ComplexFieldGrid, GridSpec
from .interferometry import (
    ChargeReading,
    Interferogram,
    add_intensity_noise,
    OrderResult,
    PanelGeometry,
    analyze_order_panel,
    extract_charge,
    fork_fringe_count,
    fringe_visibility,
    synthesize_interferogram,
)
from .pulses import (
    ChirpedPulsePair,
    TimeGrid,
    beat_frequency,
    chirped_pair_field,
    synthesize_waveform,
    train_period,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParams",
    "ChargeReading",
    "ChirpedPulsePair",
    "CombChannel",
    "ComplexFieldGrid",
    "GridSpec",
    "Interferogram",
    "LGModeIndex",
    "OrderResult",
    "PanelGeometry",
    "RamanConfig",
    "SidebandLabel",
    "SpectralComb",
    "SppSpec",
    "TimeGrid",
    "add_intensity_noise",
    "analyze_order_panel",
    "apply_spp",
    "beat_frequency",
    "build_comb",
    "cascade_phase_recursion",
    "chirped_pair_field",
    "conservation_check",
    "crystal_charges",
    "decompose",
    "extract_charge",
    "far_field",
    "fork_fringe_count",
    "fringe_visibility",
    "gaussian_field",
    "lg_mode_field",
    "observed_sideband",
    "ring_radius",
    "sideband_charge",
    "sideband_frequency",
    "spatial_sideband",
    "synthesize_interferogram",
    "synthesize_waveform",
    "train_period",
]
