"""Laguerre-Gaussian beams: construction, decomposition, propagation, metrology.

Phase convention: azimuthal factor exp(+i*ell*theta) with theta counter-
clockwise in the (x, y) plane viewed along +z, paired with the exp(-i*omega*t)
time convention, so free-space propagation multiplies the angular spectrum by
exp(+i*kz*z) and a beam diverging from its waist carries exp(+i*k*r^2/(2R)).
The plane-wave carrier exp(i*k*z) is omitted from returned fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError, AmbiguousCirculationError, ResolutionError
from .grids import ComplexFieldGrid, GridSpec

# Spectral energy fraction used to find the band a field actually occupies;
# the propagation aliasing guard only inspects the transfer function there.
_BAND_ENERGY_TAIL = 1.0e-8


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

    @property
    def rayleigh_range(self) -> float:
        return math.pi * self.waist_w0**2 / self.wavelength


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


def lg_mode_field(
    index: LGModeIndex,
    beam: BeamParams,
    spec: GridSpec,
    z: float = 0.0,
) -> ComplexFieldGrid:
    """Sample the normalized LG_p^ell mode at distance z from the waist.

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
    zr = beam.rayleigh_range
    wz = w0 * math.sqrt(1.0 + (z / zr) ** 2)
    k = 2.0 * math.pi / beam.wavelength

    xx, yy = spec.meshes()
    r2 = xx**2 + yy**2
    rho = np.sqrt(2.0 * r2) / wz

    # sqrt(2 p! / (pi (p+|ell|)!)) via log-gamma for numerical stability
    norm = math.sqrt(2.0 / math.pi) * math.exp(
        0.5 * (math.lgamma(p + 1) - math.lgamma(p + a + 1))
    )
    amp = (norm / wz) * rho**a * _laguerre(p, a, rho**2) * np.exp(-r2 / wz**2)

    phase = ell * np.arctan2(yy, xx)
    if z != 0.0:
        rz = z * (1.0 + (zr / z) ** 2)
        gouy = (2 * p + a + 1) * math.atan2(z, zr)
        phase = phase + k * r2 / (2.0 * rz) - gouy
    return ComplexFieldGrid(spec, beam.wavelength, amp * np.exp(1j * phase))


def gaussian_field(beam: BeamParams, spec: GridSpec, z: float = 0.0) -> ComplexFieldGrid:
    """Fundamental mode, i.e. LG_0^0."""
    return lg_mode_field(LGModeIndex(0, 0), beam, spec, z)


def decompose(
    field: ComplexFieldGrid,
    beam: BeamParams,
    p_max: int,
    ell_range: tuple[int, int],
    z: float = 0.0,
) -> dict[LGModeIndex, complex]:
    """Overlap coefficients <LG_p^ell | field> over a truncated basis.

    ell_range is an inclusive (min, max) interval. The basis is evaluated at
    plane z (default: the waist). Warns if the truncated basis captures less
    than 95% of the field power.
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
            mode = lg_mode_field(idx, beam, field.spec, z)
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


def _occupied_band_radius(values: np.ndarray, kx: np.ndarray, ky: np.ndarray) -> float:
    """Radius in k-space containing all but _BAND_ENERGY_TAIL of the energy."""
    spectrum = np.abs(np.fft.fft2(values)) ** 2
    kk = np.hypot(*np.meshgrid(kx, ky))
    order = np.argsort(kk, axis=None)
    cum = np.cumsum(spectrum.ravel()[order])
    total = cum[-1]
    if total == 0.0:
        return 0.0
    cut = np.searchsorted(cum, (1.0 - _BAND_ENERGY_TAIL) * total)
    cut = min(cut, cum.size - 1)
    return float(kk.ravel()[order][cut])


def propagate(field: ComplexFieldGrid, distance: float) -> ComplexFieldGrid:
    """Free-space angular-spectrum propagation by the given distance.

    Power is conserved (the transfer function is unit-modulus on the occupied
    band) and OAM content is unchanged. The caller must keep the propagated
    field inside the aperture; the guard below only checks transfer-function
    sampling over the band the field occupies.
    """
    if distance == 0.0:
        return field
    spec = field.spec
    k = field.wavenumber
    kx = 2.0 * math.pi * np.fft.fftfreq(spec.nx, spec.dx)
    ky = 2.0 * math.pi * np.fft.fftfreq(spec.ny, spec.dy)

    k_occ = _occupied_band_radius(field.values, kx, ky)
    if k_occ >= 0.95 * k:
        raise AliasingError(
            "field occupies spatial frequencies near or beyond the propagating "
            "limit; refine the sampling"
        )
    dk = max(2.0 * math.pi / spec.extent_x, 2.0 * math.pi / spec.extent_y)
    if k_occ > 0.0:
        step = abs(distance) * k_occ * dk / math.sqrt(k**2 - k_occ**2)
        if step > math.pi:
            raise AliasingError(
                f"propagation over {distance:g} m aliases the transfer function "
                f"(phase step {step:.2f} rad at the occupied band edge); use a "
                "larger grid extent or shorter steps"
            )
    kxg, kyg = np.meshgrid(kx, ky)
    kt2 = kxg**2 + kyg**2
    kz = np.sqrt(np.maximum(k**2 - kt2, 0.0))
    transfer = np.where(kt2 < k**2, np.exp(1j * distance * kz), 0.0)
    out = np.fft.ifft2(np.fft.fft2(field.values) * transfer)
    return field.with_values(out)


def _centered_dft_matrix(n: int, n_pad: int) -> np.ndarray:
    """Rows of the centred n_pad-point DFT that a centred n-sample window keeps.

    w[m, j] = exp(-2*pi*i*a_m*a_j/n_pad) over the centred indices
    a = (n_pad - n)//2 + arange(n) - n_pad//2. The integer product is reduced
    modulo n_pad before it indexes a table of roots of unity, so the phase
    stays exact at large indices.
    """
    a = (n_pad - n) // 2 + np.arange(n) - n_pad // 2
    roots = np.exp(-2j * np.pi * np.arange(n_pad) / n_pad)
    k = np.outer(a, a)
    np.remainder(k, n_pad, out=k)
    return roots[k]


def far_field(
    field: ComplexFieldGrid,
    focal_length: float | None = None,
    oversample: int = 1,
) -> ComplexFieldGrid:
    """Field in the rear focal plane of an ideal lens (Fraunhofer mapping).

    Output pitch is lambda*f/(N_pad*pitch) per axis, with N_pad = oversample*N.
    The default focal length oversample*nx*dx^2/lambda makes the output pitch
    equal the input pitch. It enters only as the product lambda*f =
    oversample*nx*dx^2, so the default far field is the same array on the
    same grid at every wavelength, to the last bit. oversample > 1 embeds the
    source in a larger empty aperture, sampling the focal plane oversample
    times finer, and returns the central N samples; power is conserved
    exactly only for oversample=1 (the crop discards whatever falls outside
    the frame).

    Only that central window is computed, by a separable matrix Fourier
    transform wy @ u @ wx.T (Soummer et al., Opt. Express 15, 15935, 2007):
    two complex matrix products costing O(nx*ny*(nx + ny)) whatever the
    oversample, where the padded FFT costs O(oversample^2*nx*ny*log(...)) and
    throws away all but 1/oversample^2 of its output. The result equals the
    centred FFT of the zero-padded source, cropped, to rounding; oversample=1
    is the plain full centred DFT.
    """
    spec = field.spec
    lam = field.wavelength
    if oversample < 1 or int(oversample) != oversample:
        raise ValueError(f"oversample must be a positive integer, got {oversample}")
    oversample = int(oversample)
    npx, npy = oversample * spec.nx, oversample * spec.ny
    if focal_length is None:
        lam_f = npx * spec.dx**2
    elif focal_length > 0:
        lam_f = lam * focal_length
    else:
        raise ValueError(f"focal length must be positive, got {focal_length}")
    wx = _centered_dft_matrix(spec.nx, npx)
    # a square grid needs one matrix; no cache, which would hold it between calls
    wy = wx if (spec.ny, npy) == (spec.nx, npx) else _centered_dft_matrix(spec.ny, npy)
    # scaled in place, like the index reduction in _centered_dft_matrix: one
    # frame-sized temporary fewer per call fragments the heap less over
    # repeated calls (peak RSS of a figure3 + pulse loop ~15 MB lower)
    transformed = wy @ field.values @ wx.T
    transformed *= spec.cell_area / lam_f
    out_spec = GridSpec(
        nx=spec.nx,
        ny=spec.ny,
        dx=lam_f / (npx * spec.dx),
        dy=lam_f / (npy * spec.dy),
    )
    return ComplexFieldGrid(out_spec, lam, transformed)


def radial_intensity_profile(field: ComplexFieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """Azimuthally averaged intensity vs radius from the grid center.

    Bins have width max(dx, dy); only radii whose annuli lie fully inside the
    aperture are returned.
    """
    spec = field.spec
    dr = max(spec.dx, spec.dy)
    r = spec.radii()
    idx = (r / dr).astype(np.int64)
    weights = field.intensity()
    counts = np.bincount(idx.ravel())
    sums = np.bincount(idx.ravel(), weights=weights.ravel())
    r_full = min(spec.extent_x, spec.extent_y) / 2.0
    n_full = max(2, int(r_full / dr) - 1)
    n_full = min(n_full, counts.size)
    prof = sums[:n_full] / np.maximum(counts[:n_full], 1)
    centers = (np.arange(n_full) + 0.5) * dr
    return centers, prof


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


def sample_on_circle(
    values: np.ndarray,
    spec: GridSpec,
    radius: float,
    n_samples: int,
    center_xy: tuple[float, float] = (0.0, 0.0),
    angle0: float = 0.0,
) -> np.ndarray:
    """Bilinear samples of a grid's values on a circle around center_xy (meters).

    Points off the grid take the value at the nearest grid coordinate: the
    sample coordinates are clamped to [0, n - 1] on each axis.
    """
    ang = angle0 + 2.0 * math.pi * np.arange(n_samples) / n_samples
    return sample_at_angles(values, spec, radius, ang, center_xy)


def sample_at_angles(
    values: np.ndarray,
    spec: GridSpec,
    radius: float | np.ndarray,
    ang: np.ndarray,
    center_xy: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Bilinear samples at center_xy + radius*(cos, sin)(ang), as sample_on_circle.

    radius may be an array matching ang, so several circles are sampled in
    one pass; each sample is computed as on its own circle.
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


def phase_circulation(field: ComplexFieldGrid, radius: float, n_samples: int = 1024) -> float:
    """Phase circulation (1/2pi) * closed line integral of grad(phi) * dl.

    The tangential phase derivative is estimated independently at each of
    the n_samples loop points from a half-step lookahead, then integrated.
    Unlike a telescoping sum of wrapped differences (which is an integer by
    construction), this quadrature reports honest non-integer values for
    undersampled or ill-defined windings.
    """
    delta = math.pi / n_samples  # half the angular step
    at = sample_on_circle(field.values, field.spec, radius, n_samples)
    ahead = sample_on_circle(field.values, field.spec, radius, n_samples, angle0=delta)
    dphi = np.angle(ahead * np.conj(at))
    return float(np.sum(dphi) / (n_samples * delta))


def measure_charge_circulation(field: ComplexFieldGrid, loop_radius: float) -> int:
    """Topological charge from the phase circulation on a centered circle.

    The loop must clear both the core and the grid edge. Raises if the
    circulation lands more than 0.25 away from an integer.
    """
    spec = field.spec
    pitch = max(spec.dx, spec.dy)
    r_max = min(spec.extent_x, spec.extent_y) / 2.0 - 2.0 * pitch
    if not (2.0 * pitch <= loop_radius <= r_max):
        raise ValueError(
            f"loop radius {loop_radius:g} m outside usable range "
            f"[{2.0 * pitch:g}, {r_max:g}]"
        )
    n = loop_sample_count(spec, loop_radius)
    circ = phase_circulation(field, loop_radius, n_samples=n)
    nearest = round(circ)
    if abs(circ - nearest) > 0.25:
        raise AmbiguousCirculationError(
            f"circulation {circ:.3f} is {abs(circ - nearest):.3f} from an integer"
        )
    return int(nearest)
