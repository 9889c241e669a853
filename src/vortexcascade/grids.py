"""Sampled transverse grids and complex field values.

Arrays are stored with shape (ny, nx); row index runs along y, column index
along x. The beam axis sits at sample (ny//2, nx//2), so coordinates are
x = (ix - nx//2)*dx and y = (iy - ny//2)*dy, which is the centred layout the
far-field transform expects.
"""

from __future__ import annotations

import copy
from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

# a row-block pass splits a frame into this many runs of rows
ROW_BLOCKS = 16


@dataclass(frozen=True)
class GridSpec:
    """Sampling of the transverse plane: counts and pitches (meters)."""

    nx: int
    ny: int
    dx: float
    dy: float

    def __post_init__(self):
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.nx}x{self.ny}")
        if self.dx <= 0 or self.dy <= 0:
            raise ValueError(f"pitches must be positive, got dx={self.dx}, dy={self.dy}")

    @classmethod
    def square(cls, n: int, pitch: float) -> "GridSpec":
        return cls(nx=n, ny=n, dx=pitch, dy=pitch)

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    @property
    def extent_x(self) -> float:
        return self.nx * self.dx

    @property
    def extent_y(self) -> float:
        return self.ny * self.dy

    @cached_property
    def x(self) -> np.ndarray:
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    @cached_property
    def y(self) -> np.ndarray:
        return (np.arange(self.ny) - self.ny // 2) * self.dy

    def row_blocks(self) -> list[slice]:
        """The rows in runs of ceil(ny/ROW_BLOCKS), the last possibly shorter."""
        step = -(-self.ny // ROW_BLOCKS)
        return [slice(r, min(r + step, self.ny)) for r in range(0, self.ny, step)]

    def azimuth(self) -> np.ndarray:
        """Polar angle in [0, 2*pi), counterclockwise from +x, shape (ny, nx)."""
        return np.mod(np.arctan2(self.y[:, None], self.x[None, :]), 2.0 * np.pi)


@dataclass(frozen=True)
class ComplexFieldGrid:
    """Sampled complex amplitude of a monochromatic transverse field.

    Power is sum(|u|^2) * dx * dy. Instances are immutable: the value array
    is copied on construction and marked read-only (with_wavelength shares
    it with the new instance). With _adopt=True a C-ordered complex128 array
    is kept itself, made read-only: that is for a caller in this package
    that has just made the array and holds no other view of it, such as
    far_field's output.
    """

    spec: GridSpec
    wavelength: float
    values: np.ndarray
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt: bool):
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        vals = self.values
        if not (
            _adopt
            and isinstance(vals, np.ndarray)
            and vals.dtype == np.complex128
            and vals.flags.c_contiguous
        ):
            vals = np.array(vals, dtype=np.complex128, copy=True, order="C")
        if vals.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(
                f"values shape {vals.shape} does not match grid "
                f"({self.spec.ny}, {self.spec.nx})"
            )
        if not (np.all(np.isfinite(vals.real)) and np.all(np.isfinite(vals.imag))):
            raise ValueError("field values must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def power(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2)) * self.spec.cell_area

    @cached_property
    def peak(self) -> float:
        """max |u|, computed once: the samples never change."""
        return float(np.abs(self.values).max())

    def intensity(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def with_values(self, values: np.ndarray) -> "ComplexFieldGrid":
        """Same grid and wavelength, new samples."""
        return ComplexFieldGrid(self.spec, self.wavelength, values)

    def with_wavelength(self, wavelength: float) -> "ComplexFieldGrid":
        """Same grid and samples, tagged with another wavelength.

        The read-only sample array is shared, not copied.
        """
        if wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {wavelength}")
        tagged = copy.copy(self)
        object.__setattr__(tagged, "wavelength", wavelength)
        return tagged
