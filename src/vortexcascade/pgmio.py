"""16-bit binary PGM (P5) image I/O.

Intensity maps linearly onto [0, 65535] by the image's global maximum;
samples are written big-endian per the PGM standard. Output is byte-exact
for identical input arrays.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

PGM_MAXVAL = 65535


def write_pgm16(path, intensity: np.ndarray) -> None:
    arr = np.asarray(intensity, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D intensity array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("intensity must be finite and non-negative")
    peak = float(arr.max())
    if peak == 0.0:
        scaled = np.zeros_like(arr)
    else:
        # arr / peak * PGM_MAXVAL, rounded, in the one new array
        scaled = arr / peak
        scaled *= PGM_MAXVAL
        np.round(scaled, out=scaled)
    data = scaled.astype(">u2")
    ny, nx = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(data)


def read_pgm16(path) -> np.ndarray:
    """Read a binary PGM into a float array scaled to [0, 1].

    The decoded frame is divided by maxval in place: the one float array.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")

    # Header: magic, width, height, maxval; '#' comments allowed between tokens.
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = re.match(rb"(?:\s+|#[^\n]*\n)*(\d+)", raw[pos:])
        if m is None:
            raise ValueError(f"{path}: malformed PGM header")
        tokens.append(int(m.group(1)))
        pos += m.end()
    nx, ny, maxval = tokens
    pos += 1  # single whitespace byte after maxval
    if maxval <= 0 or maxval > PGM_MAXVAL:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = nx * ny
    if len(raw) < pos + count * dtype.itemsize:  # np.frombuffer's own error names no file
        raise ValueError(f"{path}: truncated pixel data")
    data = np.frombuffer(raw, dtype=dtype, count=count, offset=pos)
    frame = data.reshape(ny, nx).astype(np.float64)
    frame /= float(maxval)
    return frame
