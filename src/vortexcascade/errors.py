"""Exception types shared across the package."""


class VortexCascadeError(Exception):
    """Base class for all package errors."""


class ResolutionError(VortexCascadeError):
    """Grid too coarse to represent the requested field."""


class AliasingError(VortexCascadeError):
    """A phase factor or transfer function would alias on this grid."""


class GridMismatchError(VortexCascadeError):
    """Two fields that must share a grid do not."""


class DegenerateOverlapError(VortexCascadeError):
    """The interacting beams have essentially no spatial overlap."""


class NegativeFrequencyError(VortexCascadeError):
    """The sideband ladder was extended past zero frequency."""


class NonPeriodicError(VortexCascadeError):
    """No periodic structure found in a time series."""


class ConfigError(VortexCascadeError):
    """Invalid run configuration; the message names the offending key, and a
    config file's line number leads it when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")


class BasisTruncationWarning(UserWarning):
    """Decomposition basis captured too little of the field power."""


class DetuningWarning(UserWarning):
    """Pump-Stokes difference frequency is far from the Raman resonance."""
