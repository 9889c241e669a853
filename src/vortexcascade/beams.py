"""Laguerre-Gaussian beams at the waist: construction, decomposition,
focal-plane mapping, ring radius and circle sampling.

Phase convention: azimuthal factor exp(+i*ell*theta) with theta counter-
clockwise in the (x, y) plane viewed along +z, paired with the exp(-i*omega*t)
time convention. The plane-wave carrier exp(i*k*z) is omitted from returned
fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResolutionError
from .grids import ComplexFieldGrid, GridSpec

# focal-plane sampling of every observed order: the synthetic aperture is
# this many times the source frame (see far_field)
OVERSAMPLE = 4
# columns per block of the far field's matrix products (see _folded_dft)
BLOCK = 128


@dataclass(frozen=True)
class LGModeIndex:
    """Radial index p >= 0 and signed azimuthal index ell."""

    p: int
    ell: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError(f"radial index p must be non-negative, got {self.p}")


@dataclass(frozen=True)
class BeamParams:
    """Waist (1/e^2 amplitude radius at focus) and vacuum wavelength, meters."""

    waist_w0: float
    wavelength: float

    def __post_init__(self):
        if self.waist_w0 <= 0:
            raise ValueError(f"waist must be positive, got {self.waist_w0}")
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")


def _laguerre(p: int, a: int, x: np.ndarray) -> np.ndarray:
    """Generalized Laguerre polynomial L_p^a(x), by the three-term recurrence
    (k+1) L_{k+1} = (2k+1+a-x) L_k - (k+a) L_{k-1}, L_0 = 1, L_1 = 1+a-x."""
    prev = np.ones_like(x)
    if p == 0:
        return prev
    cur = 1.0 + a - x
    for k in range(1, p):
        prev, cur = cur, ((2 * k + 1 + a - x) * cur - (k + a) * prev) / (k + 1)
    return cur


def lg_mode_field(index: LGModeIndex, beam: BeamParams, spec: GridSpec) -> ComplexFieldGrid:
    """Sample the normalized LG_p^ell mode at its waist.

    The continuous mode is unit-power; the discrete sum inherits that within
    discretization error (no renormalization is applied).
    """
    if beam.waist_w0 < 4.0 * max(spec.dx, spec.dy):
        raise ResolutionError(
            f"waist {beam.waist_w0:g} m under-resolved: needs >= 4 samples, "
            f"pitch is {max(spec.dx, spec.dy):g} m"
        )
    p, ell = index.p, index.ell
    a = abs(ell)
    w0 = beam.waist_w0

    xx, yy = spec.x[None, :], spec.y[:, None]
    r2 = xx**2 + yy**2
    rho = np.sqrt(2.0 * r2) / w0

    # sqrt(2 p! / (pi (p+|ell|)!)) via log-gamma for numerical stability
    norm = math.sqrt(2.0 / math.pi) * math.exp(
        0.5 * (math.lgamma(p + 1) - math.lgamma(p + a + 1))
    )
    # (norm/w0) * rho**a * L * exp(-r2/w0**2), multiplied in place in that
    # order; the phasor is cos + i*sin, the value exp(1j*phase) takes
    amp = rho**a
    amp *= norm / w0
    amp *= _laguerre(p, a, rho**2)
    amp *= np.exp(-r2 / w0**2)
    values = amp.astype(np.complex128)  # the phasor of ell = 0 is 1
    if ell:
        phase = ell * np.arctan2(yy, xx)
        np.cos(phase, out=values.real)
        np.sin(phase, out=values.imag)
        values *= amp
    return ComplexFieldGrid(spec, beam.wavelength, values, _adopt=True)


def gaussian_field(beam: BeamParams, spec: GridSpec) -> ComplexFieldGrid:
    """Fundamental mode, i.e. LG_0^0."""
    return lg_mode_field(LGModeIndex(0, 0), beam, spec)


def decompose(
    field: ComplexFieldGrid,
    beam: BeamParams,
    p_max: int,
    ell_range: tuple[int, int],
) -> dict[LGModeIndex, complex]:
    """Overlap coefficients <LG_p^ell | field> over a truncated basis at the waist.

    ell_range is an inclusive (min, max) interval. Warns if the truncated
    basis captures less than 95% of the field power.
    """
    import warnings

    from .errors import BasisTruncationWarning

    if not math.isclose(field.wavelength, beam.wavelength, rel_tol=1e-9):
        raise ValueError(
            f"field wavelength {field.wavelength:g} differs from basis "
            f"wavelength {beam.wavelength:g}"
        )
    ell_lo, ell_hi = ell_range
    if ell_lo > ell_hi:
        raise ValueError(f"empty ell range {ell_range}")
    area = field.spec.cell_area
    coeffs: dict[LGModeIndex, complex] = {}
    for ell in range(ell_lo, ell_hi + 1):
        for p in range(p_max + 1):
            idx = LGModeIndex(p, ell)
            mode = lg_mode_field(idx, beam, field.spec)
            coeffs[idx] = complex(np.vdot(mode.values, field.values) * area)
    captured = sum(abs(c) ** 2 for c in coeffs.values())
    power = field.power
    if power > 0 and captured < 0.95 * power:
        warnings.warn(
            f"basis (p<={p_max}, {ell_lo}<=ell<={ell_hi}) captures "
            f"{captured / power:.1%} of the field power",
            BasisTruncationWarning,
            stacklevel=2,
        )
    return coeffs


def mode_powers_by_ell(coeffs: dict[LGModeIndex, complex]) -> dict[int, float]:
    """Sum |c|^2 over p for each azimuthal order."""
    out: dict[int, float] = {}
    for idx, c in coeffs.items():
        out[idx.ell] = out.get(idx.ell, 0.0) + abs(c) ** 2
    return out


def _planes(values: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of a complex array, as a view stacked on axis 0."""
    return np.moveaxis(values.view(np.float64).reshape(*values.shape, 2), -1, 0)


def _dft_tables(n: int, n_pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The real tables of _folded_dft for an n-sample window of n_pad points.

    C[f, t] = cos(2*pi*f*t/n_pad) over f, t = 0..m and S[f, t] =
    sin(2*pi*f*t/n_pad) over 1..m, with m = n_pad//2 - (n_pad - n)//2. The
    products f*t are reduced modulo n_pad before they index an n_pad-entry
    table, so the phase stays exact at large indices.
    """
    m = n_pad // 2 - (n_pad - n) // 2
    angle = 2.0 * np.pi * np.arange(n_pad) / n_pad
    ft = np.outer(np.arange(m + 1), np.arange(m + 1))
    np.remainder(ft, n_pad, out=ft)
    return np.cos(angle)[ft], np.sin(angle)[ft[1:, 1:]]


def _folded_dft(planes: np.ndarray, cos_t: np.ndarray, sin_t: np.ndarray) -> None:
    """planes[:, f] = sum_t exp(-2*pi*i*f*t/n_pad) * planes[:, t] along axis 1, in place.

    planes holds the real and imaginary planes on axis 0. f and t run over
    the centred indices lo..hi of _dft_tables' window, with lo = (n_pad -
    n)//2 - n_pad//2 and hi = lo + n - 1. Since -lo >= hi, the window folds
    about t = 0 with m = -lo: e_t = x_t + x_-t and o_t = x_-t - x_t (x_t = 0
    past hi) give X(+-f) = (C @ e)_f +- i*(S @ o)_f, each table one real
    matrix product on both planes. The columns (axis 2) go BLOCK at a time,
    each block's samples all read before any is written, so the scratch is
    six slabs of about n/2 rows by BLOCK columns however wide the frame.
    """
    n, k = planes.shape[1:]
    m = cos_t.shape[0] - 1
    hi = n - 1 - m
    work = np.empty(6 * (m + 1) * min(k, BLOCK))

    def scratch(i, rows, kb):
        # the i-th third of work for a block of kb columns, laid out as
        # planes, so each plane is a matrix BLAS reads without a copy
        buf = work[2 * (m + 1) * kb * i :][: 2 * rows * kb]
        if planes.strides[1] < planes.strides[2]:
            return buf.reshape(2, kb, rows).transpose(0, 2, 1)
        return buf.reshape(2, rows, kb)

    for c in range(0, k, BLOCK):
        block = planes[:, :, c : c + BLOCK]
        kb = block.shape[2]
        even, odd, a = scratch(0, m + 1, kb), scratch(1, m, kb), scratch(2, m + 1, kb)
        # t = 1..hi and -1..-m as read, and f the same as written
        pos, neg = block[:, m + 1 :], block[:, m - 1 :: -1]
        # plane by plane: over both planes of a complex array's view, whose
        # plane axis has the smallest stride, a ufunc would loop innermost
        # across planes
        for p in range(2):
            even[p, 0] = block[p, m]
            np.add(neg[p, :hi], pos[p], out=even[p, 1 : hi + 1])
            np.subtract(neg[p, :hi], pos[p], out=odd[p, :hi])
            even[p, hi + 1 :] = odd[p, hi:] = neg[p, hi:]
        np.matmul(cos_t, even, out=a)
        b = np.matmul(sin_t, odd, out=scratch(0, m, kb))  # over the spent even half

        block[:, m] = a[:, 0]
        np.subtract(a[0, 1 : hi + 1], b[1, :hi], out=pos[0])
        np.add(a[1, 1 : hi + 1], b[0, :hi], out=pos[1])
        np.add(a[0, 1:], b[1], out=neg[0])
        np.subtract(a[1, 1:], b[0], out=neg[1])


def far_field(field: ComplexFieldGrid, *, _in_place: bool = False) -> ComplexFieldGrid:
    """Field in the rear focal plane of an ideal lens (Fraunhofer mapping).

    The source sits in an empty aperture of N_pad = OVERSAMPLE*N points per
    axis and lambda*f = OVERSAMPLE*nx*dx^2, so the output pitch
    lambda*f/(N_pad*pitch) is the input's in x (and in y on a square grid):
    the central N samples of a focal plane sampled OVERSAMPLE times finer
    than an unpadded transform's, with what falls outside the frame cropped.
    The wavelength only tags the output, so the far field is the same array
    on the same grid at every wavelength, to the last bit.

    Only that central window is computed, by a separable matrix Fourier
    transform (Soummer et al., Opt. Express 15, 15935, 2007), along y and
    then along x. An axis's centred indices lo..hi reach at least as far below
    0 as above it, so each pass folds its samples about the centre into even
    and odd halves and applies real cosine and sine tables of about
    (n/2 + 1)^2 entries (_folded_dft). That is nx*ny*(nx + ny) real
    multiply-adds per call, in real matrix products on the real and
    imaginary planes: a quarter of those of the complex DFT matrix products
    wy @ u @ wx.T, and independent of OVERSAMPLE, where the padded FFT
    costs O(OVERSAMPLE^2*nx*ny*log(...)) and throws away all but
    1/OVERSAMPLE^2 of its output. The result equals the centred FFT of the
    zero-padded source, cropped, to rounding.

    Both passes run in place on the output, BLOCK columns at a time, so the
    scratch besides the tables is 6*(n/2 + 1)*BLOCK floats: 1.6 MB at 512^2,
    against 6.3 MB for whole-frame passes. The source is copied once into
    the output; with _in_place=True, for a caller in this package that has
    just made field and holds it nowhere else (cascade.observed_sideband),
    field's own samples are transformed and no longer hold the source.
    """
    spec = field.spec
    npx, npy = OVERSAMPLE * spec.nx, OVERSAMPLE * spec.ny
    lam_f = npx * spec.dx**2
    cos_y, sin_y = _dft_tables(spec.ny, npy)
    cos_x, sin_x = (cos_y, sin_y) if npx == npy else _dft_tables(spec.nx, npx)
    if _in_place:
        transformed = field.values
        transformed.setflags(write=True)
    else:
        transformed = field.values.copy()
    planes = _planes(transformed)
    _folded_dft(planes, cos_y, sin_y)
    # the scale rides in the x tables, scaled in place once the y pass is done
    cos_x *= spec.cell_area / lam_f
    sin_x *= spec.cell_area / lam_f
    _folded_dft(planes.transpose(0, 2, 1), cos_x, sin_x)
    out_spec = GridSpec(
        nx=spec.nx,
        ny=spec.ny,
        dx=lam_f / (npx * spec.dx),
        dy=lam_f / (npy * spec.dy),
    )
    return ComplexFieldGrid(out_spec, field.wavelength, transformed, _adopt=True)


def azimuthal_profile(
    weights: np.ndarray, spec: GridSpec, center_xy: tuple[float, float], nbins: int
) -> np.ndarray:
    """Mean of weights over the first nbins annuli around center_xy (meters).

    Annulus j holds the samples at distance [j, j + 1) * max(dx, dy) from the
    centre; an annulus with no sample reads 0.
    """
    dr = max(spec.dx, spec.dy)
    r = np.hypot(spec.x[None, :] - center_xy[0], spec.y[:, None] - center_xy[1])
    idx = (r / dr).astype(np.int64).ravel()
    counts = np.bincount(idx, minlength=nbins)[:nbins]
    sums = np.bincount(idx, weights=weights.ravel(), minlength=nbins)[:nbins]
    return sums / np.maximum(counts, 1)


def radial_intensity_profile(field: ComplexFieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """Azimuthally averaged intensity vs radius from the grid center.

    Bins have width max(dx, dy); only radii whose annuli lie fully inside the
    aperture are returned.
    """
    spec = field.spec
    dr = max(spec.dx, spec.dy)
    n_full = max(2, int(min(spec.extent_x, spec.extent_y) / 2.0 / dr) - 1)
    centers = (np.arange(n_full) + 0.5) * dr
    return centers, azimuthal_profile(field.intensity(), spec, (0.0, 0.0), n_full)


def ring_radius(field: ComplexFieldGrid) -> float:
    """Radius of the azimuthally averaged intensity peak, sub-pixel refined.

    Returns 0 when the profile peaks in the innermost bin (the ell=0 case).
    """
    centers, prof = radial_intensity_profile(field)
    j = int(np.argmax(prof))
    if j == 0:
        return 0.0
    if j >= prof.size - 1:
        return float(centers[j])
    denom = prof[j - 1] - 2.0 * prof[j] + prof[j + 1]
    delta = 0.0 if denom == 0 else 0.5 * (prof[j - 1] - prof[j + 1]) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    dr = centers[1] - centers[0]
    return float(centers[j] + delta * dr)


def loop_sample_count(spec: GridSpec, radius: float) -> int:
    """Samples on a closed loop of the given radius: >= 16 per finest pitch."""
    return max(512, 16 * int(math.ceil(radius / min(spec.dx, spec.dy))))


def sample_at_angles(
    values: np.ndarray,
    spec: GridSpec,
    radius: float | np.ndarray,
    ang: np.ndarray,
    center_xy: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Bilinear samples of a grid's values at center_xy + radius*(cos, sin)(ang).

    center_xy and radius are in meters. radius may be an array matching ang,
    so several circles are sampled in one pass; each sample is computed as on
    its own circle. Points off the grid take the value at the nearest grid
    coordinate: the sample coordinates are clamped to [0, n - 1] on each axis.
    """
    px = center_xy[0] + radius * np.cos(ang)
    py = center_xy[1] + radius * np.sin(ang)
    col = np.clip(px / spec.dx + spec.nx // 2, 0, spec.nx - 1)
    row = np.clip(py / spec.dy + spec.ny // 2, 0, spec.ny - 1)
    # the cell's lower corner; at the last coordinate the cell below is used
    # with weight 1 on its upper corner, so no index leaves the grid
    c0 = np.minimum(col.astype(np.intp), spec.nx - 2)
    r0 = np.minimum(row.astype(np.intp), spec.ny - 2)
    tc = col - c0
    tr = row - r0
    flat = values.ravel()
    corner = r0 * spec.nx + c0  # flat index of the cell's lower corner
    top = (1.0 - tc) * flat[corner] + tc * flat[corner + 1]
    bottom = (1.0 - tc) * flat[corner + spec.nx] + tc * flat[corner + spec.nx + 1]
    return (1.0 - tr) * top + tr * bottom
