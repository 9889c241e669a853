"""Double-source fork interferograms and automated charge readout.

An interferogram is the intensity of a vortex-set field plus a tilted
reference-set field of the same color. Readout is Fourier demodulation:
isolate the sideband at the +carrier frequency, remove the carrier ramp,
and integrate the phase winding around the detected singularity. The
demodulation is Takeda's with spectral cropping (Takeda, Ina & Kobayashi,
JOSA 72, 156, 1982): one rfft2 per image, then only a small patch around
the carrier (and one around DC) is inverse-transformed, so the core search,
the windings and the visibility all run on a decimated grid whose pitch is
the frame's times n/M (M = 64 for a 32-fringe carrier). With the
carrier at +f_c the demodulated field is conj(V)*R, so the reported charge
is ell(V) - ell(R); flipping the carrier metadata sign conjugates the
demodulated field and negates the reading, which is exactly the statement
that the fork direction only fixes the helicity once the sign of the angle
between the beams is known.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from functools import cached_property
from typing import Any, Callable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beams import BeamParams, LGModeIndex, azimuthal_profile, lg_mode_field
from .beams import loop_sample_count, sample_at_angles
from .cascade import RamanConfig, SidebandLabel, mirrored_sideband, observed_sideband
from .errors import AliasingError, GridMismatchError, VortexCascadeError
from .grids import ComplexFieldGrid, GridSpec
from .units import wavelength_from_omega

TWO_PI = 2.0 * math.pi
# side, in bins, of the blocks whose summed power locates a carrier's sideband
POOL = 4


def _wrap(a):
    """Phase differences wrapped into [-pi, pi).

    Defined for a in [-2*pi, 2*pi], where every difference of two np.angle
    values lies. There its two compare-and-shift steps equal
    np.mod(a + pi, 2*pi) - pi bit for bit: b = a + pi lies in [-pi, 3*pi];
    for b >= 2*pi, b - 2*pi is exact (Sterbenz), as np.mod's remainder is;
    for b < 0, b + 2*pi is the sum np.mod itself rounds (to 2*pi, giving
    +pi, for the tiniest negative b).
    """
    b = a + math.pi
    np.subtract(b, TWO_PI, out=b, where=b >= TWO_PI)
    np.add(b, TWO_PI, out=b, where=b < 0.0)
    b -= math.pi
    return b


def _check_carrier(carrier: tuple[float, float], wavelength: float, spec: GridSpec) -> None:
    ax, ay = carrier
    if abs(ax) >= wavelength / (2.0 * spec.dx) or abs(ay) >= wavelength / (2.0 * spec.dy):
        raise AliasingError("carrier tilt at or beyond the Nyquist angle")


def _fft_order(n: int) -> np.ndarray:
    """Signed integer bins of an n-point FFT, in FFT order (np.fft.fftfreq * n)."""
    return np.fft.ifftshift(np.arange(n) - n // 2)


def _crop_axis(n: int, m: int, center: float):
    """One axis of an m-bin spectral crop around the (fractional) bin center.

    Returns (bins, shift, ramp). bins are the crop's signed bins in FFT
    order, each reduced to np.fft.fftfreq's range of an n-bin axis. shift is
    the per-bin phase that places coarse sample j at the fine position
    n//2 + (j - m//2)*n/m, which is the coarse GridSpec's coordinate. ramp is
    the per-sample factor m/n * exp(2*pi*i*(c_int*j - center*(j - m//2))/m):
    it restores the crop's integer bin shift c_int, removes the carrier in
    coarse coordinates and rescales the m-point inverse FFT to the frame's.
    """
    c_int = int(round(center))
    offsets = _fft_order(m)
    delta = n // 2 - (m // 2) * n / m  # sub-sample offset; 0 when m divides n
    shift = np.exp(1j * TWO_PI * (c_int + offsets) * delta / n)
    j = np.arange(m)
    ramp = (m / n) * np.exp(1j * TWO_PI * (c_int * j - center * (j - m // 2)) / m)
    bins = (c_int + offsets + n // 2) % n - n // 2
    return bins, shift, ramp


@dataclass(frozen=True)
class Interferogram:
    """Non-negative intensity grid plus carrier-tilt metadata.

    The intensity is frozen: a read-only copy of what was passed, or, with
    adopt=True, the passed float64 array itself made read-only. adopt is for
    an array its caller has just made and holds no other view of, such as a
    decoded image, so no reference left outside can change it.
    """

    spec: GridSpec
    intensity: np.ndarray
    carrier: tuple[float, float]  # (angle_x, angle_y) radians of relative tilt
    wavelength: float
    label: SidebandLabel | None = None
    adopt: InitVar[bool] = False

    def __post_init__(self, adopt: bool):
        vals = self.intensity
        if not (adopt and isinstance(vals, np.ndarray) and vals.dtype == np.float64):
            vals = np.array(vals, dtype=np.float64, copy=True)
        if vals.shape != (self.spec.ny, self.spec.nx):
            raise ValueError(
                f"intensity shape {vals.shape} does not match grid "
                f"({self.spec.ny}, {self.spec.nx})"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("intensity must be finite")
        if np.any(vals < 0):
            raise ValueError("intensity must be non-negative")
        vals.setflags(write=False)
        object.__setattr__(self, "intensity", vals)
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        _check_carrier(self.carrier, self.wavelength, self.spec)

    @cached_property
    def half_spectrum(self) -> np.ndarray:
        """rfft2 of the intensity: the bins kx >= 0, shape (ny, nx//2 + 1).

        The intensity is real, so this half holds the whole spectrum
        (F(-k) = conj(F(k))); carrier detection and demodulation share it.
        """
        return np.fft.rfft2(self.intensity)


@dataclass(frozen=True)
class ChargeReading:
    """Signed charge and its confidence in [0, 1]: the fringe visibility^(1/4)
    around the core where its winding circles agree, and 0 otherwise."""

    ell: int
    confidence: float

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


def synthesize_interferogram(
    vortex: ComplexFieldGrid,
    reference: ComplexFieldGrid,
    tilt: float,
    offset_y: float = 0.0,
    label: SidebandLabel | None = None,
) -> Interferogram:
    """|vortex + reference * exp(i*k*tilt*x)|^2, reference shifted by offset_y.

    Fringe period is lambda/tilt for small angles; Interferogram refuses a
    tilt at the Nyquist angle (AliasingError). The vertical offset rolls the
    reference by whole samples (tails wrap; keep offsets small against the
    aperture).
    """
    if vortex.spec != reference.spec:
        raise GridMismatchError("vortex and reference grids differ")
    if not math.isclose(vortex.wavelength, reference.wavelength, rel_tol=1e-9):
        raise ValueError(
            f"wavelengths differ: {vortex.wavelength:g} vs {reference.wavelength:g}"
        )
    spec = vortex.spec
    lam = vortex.wavelength
    ref = reference.values
    shift = int(round(offset_y / spec.dy))
    if shift != 0:
        ref = np.roll(ref, shift, axis=0)
    if tilt != 0.0:
        k = 2.0 * math.pi / lam
        ref = ref * np.exp(1j * k * tilt * spec.x)[None, :]
    total = vortex.values + ref
    return Interferogram(
        spec=spec,
        intensity=np.abs(total) ** 2,
        carrier=(tilt, 0.0),
        wavelength=lam,
        label=label,
    )


def add_intensity_noise(
    gram: Interferogram, fraction: float, rng: np.random.Generator
) -> Interferogram:
    """Additive white intensity noise with rms = fraction * peak, clipped at 0."""
    if fraction < 0:
        raise ValueError(f"noise fraction must be non-negative, got {fraction}")
    if fraction == 0.0:
        return gram
    sigma = fraction * float(np.max(gram.intensity))
    noisy = gram.intensity + sigma * rng.standard_normal(gram.intensity.shape)
    return replace(gram, intensity=np.maximum(noisy, 0.0))


def _below_tenfold_median(peak: float, values: np.ndarray) -> bool:
    """peak < 10 * np.median(values), mostly without the median.

    x -> 10*x rounds monotonically, so the values whose tenfold exceeds peak
    are the top `above` of the sorted values, and the median's tenfold does
    iff the median is among them. Only an even count split exactly between
    the two middle values needs their mean, which np.median computes.
    """
    above = 2 * int(np.count_nonzero(10.0 * values > peak))
    if above != values.size:
        return above > values.size
    return peak < 10.0 * float(np.median(values))


def _dc_radius(spectrum: np.ndarray, nx: int, ny: int) -> int | None:
    """Radius, in bins, past which the baseband lobe of a half spectrum is quiet.

    The radial max-profile (the largest |F| at each rounded radius, radii at
    or past r_max = min(nx, ny)//2 folded into r_max) is walked out from
    r = 2 to the first of three bins in a row below 5% of its peak over radii
    1..3. The profile up to radius k depends only on the box |by| <= k,
    bx <= k around DC, so it is built on such a box, doubled until the walk
    ends inside it, and on the whole half spectrum once k reaches r_max.
    Max is exact, so each radius sees the same bins and values as on the
    whole half spectrum. None when the spectrum is zero near DC or never
    quiets.
    """
    r_max = min(nx, ny) // 2
    k = 16
    while True:
        if k >= r_max:
            k = r_max
            by = _fft_order(ny)[:, None]
            box = spectrum
        else:
            by = np.r_[0 : k + 1, -k:0][:, None]
            box = spectrum[by[:, 0] % ny, : k + 1]
        bx = np.arange(box.shape[1])[None, :]
        # radii past k only fill the slot k + 1 of a box's profile
        r_idx = np.minimum(np.round(np.sqrt(bx**2 + by**2)).astype(int), min(k + 1, r_max))
        profile = np.zeros(min(k + 1, r_max) + 1)
        np.maximum.at(profile, r_idx.ravel(), box.ravel())
        ref = float(np.max(profile[1:4]))
        if ref <= 0:
            return None
        quiet = profile[: k + 1] < 0.05 * ref
        for r in range(2, quiet.size - 2):
            if quiet[r] and quiet[r + 1] and quiet[r + 2]:
                return r
        if k == r_max:
            return None
        k *= 2


def _pool(a: np.ndarray, k: int) -> np.ndarray:
    """Sums of a over k x k blocks from index (0, 0); the last row and column
    of blocks are partial where k does not divide the shape."""
    rows = a[0::k].copy()
    for j in range(1, k):
        part = a[j::k]
        rows[: part.shape[0]] += part
    out = rows[:, 0::k].copy()
    for j in range(1, k):
        part = rows[:, j::k]
        out[:, : part.shape[1]] += part
    return out


def detect_carrier(gram: Interferogram, sign_hint: int = 1) -> tuple[float, float] | None:
    """Carrier angles from the dominant off-axis spectral peak, or None.

    The spectrum of a two-beam pattern is conjugate-symmetric, so only the
    half-plane fx >= 0 is searched; sign_hint = -1 selects the mirrored
    carrier (the sign of the angle between the beams is the one thing the
    pattern itself cannot tell).

    The baseband lobe is found on boxes around DC that grow until its
    radial max-profile has quieted (_dc_radius); the rest of the open
    half-plane is the band. A pattern whose peak is under ten times the
    median of the band has no carrier; the gate counts the values whose
    tenfold exceeds the peak and needs the median itself only when exactly
    half of an even-sized band does (_below_tenfold_median).

    The sideband is found where the band's power, summed over POOL x POOL
    blocks, is largest; its strongest bin p is the peak. The carrier is the
    centroid of the power above the noise floor (the median block sum per
    bin) over the bins of the full plane within |p|/2 of the peak and
    outside the baseband lobe; bins at negative fx are read as their
    mirrors. A fork's sideband is a ring or disc centred on the carrier, so
    its centroid is the carrier; the noise floor, spread over the whole
    band, moves it only through its fluctuations inside the disc.
    """
    ny, nx = gram.intensity.shape
    spectrum = np.abs(gram.half_spectrum)
    r_dc = _dc_radius(spectrum, nx, ny)
    if r_dc is None:
        return None
    by = _fft_order(ny)[:, None]  # signed bins; columns are bx = 0 .. nx//2
    bx = np.arange(nx // 2 + 1)[None, :]
    # the open half-plane of the full spectrum: bx in (0, nx/2), or bx = 0
    # with by > 0 (the column bx = nx/2 of an even frame is its own mirror)
    band = (bx**2 >= r_dc**2 - by**2) & (((bx > 0) & (2 * bx < nx)) | ((bx == 0) & (by > 0)))
    values = spectrum[band]
    if values.size == 0:
        return None
    peak_val = float(np.max(values))
    if peak_val <= 0 or _below_tenfold_median(peak_val, values):
        return None
    power = np.square(spectrum, out=spectrum)
    power *= band
    pooled = _pool(power, POOL)
    iy, ix = np.unravel_index(int(np.argmax(pooled)), pooled.shape)
    block = power[iy * POOL : (iy + 1) * POOL, ix * POOL : (ix + 1) * POOL]
    jy, jx = np.unravel_index(int(np.argmax(block)), block.shape)
    py, px = int(by[iy * POOL + jy, 0]), ix * POOL + jx
    floor = float(np.median(pooled)) / POOL**2
    # the disc 4*|b - p|^2 <= |p|^2 in integers, and its box in signed bins
    # within the frame's unaliased range
    reach2 = px * px + py * py
    reach = math.isqrt(reach2 // 4)
    ys = np.arange(max(py - reach, -(ny // 2)), min(py + reach, (ny - 1) // 2) + 1)
    xs = np.arange(max(px - reach, -((nx - 1) // 2)), min(px + reach, (nx - 1) // 2) + 1)
    # the band holds bx > 0 and, at bx = 0, by > 0; the rest are mirrors
    mirror = (xs[None, :] < 0) | ((xs[None, :] == 0) & (ys[:, None] < 0))
    cols = np.abs(xs)
    patch = np.where(mirror, power[np.ix_(-ys % ny, cols)], power[np.ix_(ys % ny, cols)])
    r2 = xs[None, :] ** 2 + ys[:, None] ** 2
    inside = (4 * ((xs[None, :] - px) ** 2 + (ys[:, None] - py) ** 2) <= reach2) & (r2 >= r_dc**2)
    weight = np.where(inside, patch - floor, 0.0)
    total = float(np.sum(weight))
    if total <= 0:
        return None
    fx = float(np.sum(weight, axis=0) @ xs / total) / (nx * gram.spec.dx)
    fy = float(np.sum(weight, axis=1) @ ys / total) / (ny * gram.spec.dy)
    if sign_hint < 0:
        fx, fy = -fx, -fy
    return (fx * gram.wavelength, fy * gram.wavelength)


def _carrier_bins(gram: Interferogram, carrier: tuple[float, float]) -> tuple[float, float]:
    """The carrier's (x, y) offset from DC in spectral bins of the frame."""
    spec = gram.spec
    return (
        carrier[0] / gram.wavelength * spec.nx * spec.dx,
        carrier[1] / gram.wavelength * spec.ny * spec.dy,
    )


def _demodulate(gram: Interferogram, carrier: tuple[float, float]):
    """Isolate the +carrier sideband on a decimated grid; return (D, I_lowpass, spec).

    Fourier-transform fringe analysis with spectral cropping (Takeda, Ina &
    Kobayashi, JOSA 72, 156, 1982). The sideband is band-limited to
    r_mask = |carrier|/2 bins around the carrier, so only an M x M patch of
    the half spectrum is kept around the carrier and another around DC, with
    M = min(n, next power of two >= 2*|c|) per axis, where |c| is the
    distance of the carrier's nearest integer bin from DC (r_mask and the
    window keep the fractional carrier). Each patch gets the
    raised-cosine window of radius r_mask and an M-point inverse FFT; bins
    at negative kx are read as the conjugate of their mirror. D is the
    complex interference term with the carrier ramp removed (conj(V)*R for
    a synthesized pattern); I_lowpass is the baseband |V|^2+|R|^2 filtered
    with the same window radius. Both equal the full-frame results, to
    rounding, at the samples of the returned coarse GridSpec (pitch dx*nx/M,
    same field of view and axis; where M does not divide n, the full-frame
    Fourier series between fine samples). Raises AliasingError for a carrier
    at or beyond the Nyquist angle.
    """
    spec = gram.spec
    _check_carrier(carrier, gram.wavelength, spec)
    cbx, cby = _carrier_bins(gram, carrier)
    c_mag = math.hypot(cbx, cby)
    if c_mag < 3.0:
        raise ValueError("carrier too close to DC to demodulate")
    r_mask = 0.5 * c_mag
    # sized from the nearest integer bin, so a carrier a hair past a power
    # of two (a detected 32.000002 bins) keeps the crop of the exact one
    crop = 1 << math.ceil(math.log2(2.0 * math.hypot(round(cbx), round(cby))))
    mx, my = min(spec.nx, crop), min(spec.ny, crop)
    coarse = GridSpec(nx=mx, ny=my, dx=spec.dx * spec.nx / mx, dy=spec.dy * spec.ny / my)
    half = gram.half_spectrum

    def _band(cx, cy):
        bx, sx, rx = _crop_axis(spec.nx, mx, cx)
        by, sy, ry = _crop_axis(spec.ny, my, cy)
        # raised cosine of the distance from the center, zero past r_mask;
        # a distance is never below either of its legs, so only the rows and
        # columns within r_mask of the center need it
        ux, uy = bx - cx, by - cy
        rows, cols = np.abs(uy) <= r_mask, np.abs(ux) <= r_mask
        dist = np.hypot(ux[cols][None, :], uy[rows][:, None])
        inside = dist <= r_mask
        w_near = np.zeros(dist.shape)
        w_near[inside] = 0.5 * (1.0 + np.cos(np.pi * (dist[inside] / r_mask)))
        w = np.zeros((my, mx))
        w[np.ix_(rows, cols)] = w_near
        patch = half[np.ix_(by % spec.ny, np.abs(bx))]
        mirrored = bx < 0
        if mirrored.any():
            patch[:, mirrored] = np.conj(half[np.ix_(-by % spec.ny, -bx[mirrored])])
        side = np.fft.ifft2(patch * w * (sy[:, None] * sx[None, :]))
        return side * (ry[:, None] * rx[None, :])

    return _band(cbx, cby), _band(0.0, 0.0).real, coarse


def _windings_on_circles(
    values: np.ndarray, spec: GridSpec, center_xy: tuple[float, float], radii: list[float]
) -> list[float]:
    """Phase winding of values (in turns) on each circle around center_xy.

    Each circle gets loop_sample_count samples. All circles are sampled in
    one bilinear pass; each winding is the sum of its own circle's wrapped
    differences, the last one closing the loop.
    """
    counts = [loop_sample_count(spec, r) for r in radii]
    ang = np.concatenate([2.0 * math.pi * np.arange(n) / n for n in counts])
    ph = np.angle(sample_at_angles(values, spec, np.repeat(radii, counts), ang, center_xy))
    ends = np.cumsum(counts)
    starts = ends - counts
    nxt = np.arange(1, ph.size + 1)
    nxt[ends - 1] = starts
    d = _wrap(ph[nxt] - ph)
    return [float(np.sum(d[a:b]) / TWO_PI) for a, b in zip(starts, ends)]


def _gaussian_filter(a: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with mirror-reflected edges.

    The kernel exp(-t^2/(2 sigma^2)) is normalised over |t| <= int(4 sigma + 0.5)
    and applied along each axis in turn to the array padded with its mirror
    image, edge sample included (d c b a | a b c d | d c b a).
    """
    radius = int(4.0 * sigma + 0.5)
    t = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * t**2)
    kernel /= kernel.sum()
    out = a
    for axis in range(a.ndim):
        widths = [(0, 0)] * a.ndim
        widths[axis] = (radius, radius)
        padded = np.pad(out, widths, mode="symmetric")
        out = sliding_window_view(padded, 2 * radius + 1, axis=axis) @ kernel
    return out


def _plaquette_winding(phase: np.ndarray) -> np.ndarray:
    """Wrapped phase circulation around each 2x2 cell, in radians."""
    dx = _wrap(phase[:, 1:] - phase[:, :-1])
    dy = _wrap(phase[1:, :] - phase[:-1, :])
    return dx[:-1, :] + dy[:, 1:] - dx[1:, :] - dy[:, :-1]


def _core_candidates(
    D: np.ndarray, env: np.ndarray, spec: GridSpec
) -> Iterator[tuple[float, float]]:
    """Candidate singularity positions of the demodulated field, lazily.

    Yields up to three cores, in order, each computed only when the caller
    asks for the next: (1) the strongest cluster of +-2*pi
    phase-circulation cells embedded in real fringe signal, which resolves
    shallow cores whose envelope dip is weak (none when no cell
    qualifies); (2) the centroid of the fringe signal (none when there is
    no signal); (3) the deepest envelope hole inside the fringe annulus
    (ties broken toward the axis), which handles wide dark cores and the
    charge-0 case where no true singular cell exists.
    """
    sigma_big = max(3.0, min(spec.nx, spec.ny) / 64.0)
    local = _gaussian_filter(env, sigma_big)
    xx, yy = spec.x[None, :], spec.y[:, None]  # broadcast, as spec.meshes()
    rr = np.hypot(xx, yy)
    central = rr <= 0.35 * min(spec.extent_x, spec.extent_y)

    wind = _plaquette_winding(np.angle(D))
    cell_local = local[:-1, :-1]
    # only vortices embedded in strong fringe signal qualify; dim regions
    # are full of noise-born and numerically meaningless phase defects
    singular = (np.abs(wind) > math.pi) & central[:-1, :-1] & (
        cell_local >= 0.05 * float(local.max())
    )
    if np.any(singular):
        weight = np.where(singular, cell_local, -np.inf)
        iy, ix = np.unravel_index(int(np.argmax(weight)), weight.shape)
        # the cells within 5 cells of the strongest, from a box around it in
        # row-major order, which fixes the centroid sums' rounding
        ny_c, nx_c = wind.shape
        box = np.s_[max(iy - 5, 0) : min(iy + 6, ny_c), max(ix - 5, 0) : min(ix + 6, nx_c)]
        cyy, cxx = np.mgrid[box]
        near = singular[box] & ((cxx - ix) ** 2 + (cyy - iy) ** 2 <= 25)
        w = np.abs(wind[box][near]) * np.maximum(cell_local[box][near], 0.0)
        fx, fy = float(ix), float(iy)
        if float(np.sum(w)) > 0:
            fx = float(np.sum(cxx[near] * w) / np.sum(w))
            fy = float(np.sum(cyy[near] * w) / np.sum(w))
        yield ((fx + 0.5 - spec.nx // 2) * spec.dx, (fy + 0.5 - spec.ny // 2) * spec.dy)

    # centroid of the fringe signal: immune to isolated noise nulls, and for
    # a centered pattern it coincides with the core anyway
    w2 = np.where(local >= 0.1 * float(local.max()), env**2, 0.0)
    total = float(np.sum(w2))
    if total > 0:
        yield (float(np.sum(xx * w2) / total), float(np.sum(yy * w2) / total))

    sm = _gaussian_filter(env, 1.0)
    search = central & (local >= 0.1 * float(local.max()))
    if not np.any(search):
        search = central
    masked = np.where(search, sm, np.inf)
    flat_min = np.min(masked)
    ties = np.argwhere(masked <= flat_min * (1.0 + 1e-12) + 1e-300)
    best = min(ties.tolist(), key=lambda ij: (rr[ij[0], ij[1]], ij[0], ij[1]))
    yield (float(spec.x[best[1]]), float(spec.y[best[0]]))


def _signal_ring_radius(
    env: np.ndarray, spec: GridSpec, center_xy: tuple[float, float]
) -> float:
    """Radius of strongest envelope around the core (best winding circle)."""
    dr = max(spec.dx, spec.dy)
    nbins = int(0.45 * min(spec.extent_x, spec.extent_y) / dr)
    j = int(np.argmax(azimuthal_profile(env, spec, center_xy, nbins)))
    return max((j + 0.5) * dr, 4.0 * dr)


def extract_charge(gram: Interferogram, sign_hint: int = 1) -> ChargeReading:
    """Signed topological charge of the vortex arm relative to the reference.

    Demodulates at gram.carrier (angle_x, angle_y); replace(gram, carrier=...)
    reads at another. A carrier under 3 fringes across the frame's shorter
    side falls back to spectral detection (detect_carrier with sign_hint).
    Returns ell=0 with zero confidence when no carrier or no fringe signal
    is present.

    Each core candidate is read on three circles; a circle's wrapped phase
    differences telescope, so its winding is a whole number of turns. The
    first core whose three circles agree is read, and later cores are not
    computed; confidence is then the fringe visibility^(1/4) on a band
    around the ring. If no core's circles agree, the first core with the
    smallest spread gives its median turn count, at confidence 0.

    Everything after the demodulation runs on its coarse grid (see
    _demodulate): core candidates, ring radius, windings and the visibility
    band, at pitch dx*nx/M with M = min(n, next power of two >= 2*|c|),
    |c| the distance in bins of the carrier's nearest integer bin from DC:
    64 x 64 samples for a 32-fringe carrier at 256 or 512, whether given or
    detected.
    """
    carrier = gram.carrier
    if math.hypot(*carrier) / gram.wavelength * min(gram.spec.extent_x, gram.spec.extent_y) < 3.0:
        carrier = detect_carrier(gram, sign_hint)
        # a detected carrier under 3 bins from DC, which _demodulate
        # refuses, is no carrier
        if carrier is None or math.hypot(*_carrier_bins(gram, carrier)) < 3.0:
            return ChargeReading(0, 0.0)

    D, i_lp, spec = _demodulate(gram, carrier)
    env = np.abs(D)
    if float(env.max()) < 1.0e-9 * max(float(i_lp.max()), 1e-300):
        return ChargeReading(0, 0.0)

    pitch = max(spec.dx, spec.dy)
    r_hi = 0.45 * min(spec.extent_x, spec.extent_y) - 2.0 * pitch

    best: tuple[int, int, tuple[float, float], float] | None = None
    for core in _core_candidates(D, env, spec):
        r_sig = _signal_ring_radius(env, spec, core)
        radii = [min(max(f * r_sig, 4.0 * pitch), r_hi) for f in (0.6, 1.0, 1.4)]
        # conj(V)*R winds by ell(R)-ell(V); report ell(V)-ell(R)
        turns = sorted(-round(w) for w in _windings_on_circles(D, spec, core, radii))
        ell = turns[1]
        spread = max(ell - turns[0], turns[2] - ell)
        if best is None or spread < best[0]:
            best = (spread, ell, core, r_sig)
        if spread == 0:
            break
    spread, ell, core, r_sig = best
    if spread > 0:
        return ChargeReading(ell, 0.0)

    ring = np.hypot(spec.x[None, :] - core[0], spec.y[:, None] - core[1])
    band = (ring >= 0.8 * r_sig) & (ring <= 1.2 * r_sig) & (i_lp > 1e-12 * i_lp.max())
    if np.any(band):
        vis = float(np.median(2.0 * env[band] / i_lp[band]))
    else:
        vis = 0.0
    return ChargeReading(ell, min(max(vis, 0.0), 1.0) ** 0.25)


@dataclass(frozen=True)
class PanelGeometry:
    """Rendering geometry for the double-source sideband experiment.

    Sidebands are observed in far_field's one focal plane (beams.OVERSAMPLE),
    on one observation grid for every order. The carrier is specified
    as a fringe count across the frame (default nx/8) so each order's
    interferogram is demodulated at the same spectral position.
    """

    spec: GridSpec
    waist: float
    fringes: float | None = None
    offset_y: float = 0.0
    noise_fraction: float = 0.0
    seed: int = 0

    def fringe_count(self) -> float:
        return self.fringes if self.fringes is not None else self.spec.nx / 8.0


@dataclass(frozen=True)
class OrderResult:
    label: SidebandLabel
    status: str
    reading: ChargeReading | None = None
    beam_intensity: np.ndarray | None = None
    fork_intensity: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def analyze_order_panel(
    cfg: RamanConfig,
    geometry: PanelGeometry,
    orders: list[SidebandLabel],
    sink: Callable[[OrderResult], Any] | None = None,
) -> list:
    """Full per-order pipeline: sidebands of a vortex set and an ell=0
    reference set, observed in the focal plane, interfered, and read out.

    Failures in one order are recorded in its status and do not abort the
    others. Results follow the requested order list.

    Where a set's two seeds are one array, orders k and 1 - k share one
    observed field (see observed_sideband). The orders run pair by pair, so
    a shared field is held only until the last order of its pair takes it.

    sink, when given, is called with each order's OrderResult as soon as
    that order is read, in pair order (for k = -2..3: S2, AS2, S1, AS1, S,
    P), and the list holds what it returns in place of the result; a sink
    that drops the images keeps only one order's arrays alive at a time.
    An exception the sink raises is not an order failure: it propagates.
    """
    lam_p = wavelength_from_omega(cfg.omega_p)
    lam_s = wavelength_from_omega(cfg.omega_s)
    # at the waist an LG mode does not depend on wavelength (w(z) = w0), so
    # each charge is sampled once and retagged with each colour: a set's two
    # seeds are one array exactly when they share a charge
    sampled = {
        ell: lg_mode_field(LGModeIndex(0, ell), BeamParams(geometry.waist, lam_p), geometry.spec)
        for ell in dict.fromkeys((cfg.ell_p, cfg.ell_s, 0))
    }
    sets = (
        (sampled[cfg.ell_p].with_wavelength(lam_p), sampled[cfg.ell_s].with_wavelength(lam_s)),
        (sampled[0].with_wavelength(lam_p), sampled[0].with_wavelength(lam_s)),
    )
    mirrored = [pump.values is stokes.values for pump, stokes in sets]

    def observe(s: int, label: SidebandLabel, shared: dict, last: bool) -> ComplexFieldGrid:
        pump, stokes = sets[s]
        if not mirrored[s]:
            return observed_sideband(pump, stokes, label)
        partner = shared.pop(s, None) if last else shared.get(s)
        if partner is not None:
            return mirrored_sideband(partner, pump, stokes, label)
        field = observed_sideband(pump, stokes, label)
        if not last:
            shared[s] = field
        return field

    def read(label: SidebandLabel, shared: dict, last: bool) -> OrderResult:
        # the order's fields and gram die with this frame, before the next
        # order's sidebands are made
        try:
            vortex = observe(0, label, shared, last)
            reference = observe(1, label, shared, last)
            tilt = geometry.fringe_count() * vortex.wavelength / (
                vortex.spec.nx * vortex.spec.dx
            )
            gram = synthesize_interferogram(
                vortex, reference, tilt, geometry.offset_y, label=label
            )
            if geometry.noise_fraction > 0.0:
                rng = np.random.default_rng((geometry.seed, label.k + 10_000))
                gram = add_intensity_noise(gram, geometry.noise_fraction, rng)
            return OrderResult(
                label=label,
                status="ok",
                reading=extract_charge(gram),
                beam_intensity=vortex.intensity(),
                fork_intensity=gram.intensity,
            )
        except (VortexCascadeError, ValueError) as exc:
            return OrderResult(label=label, status=f"error: {exc}")

    pairs: dict[int, list[int]] = {}
    for i, label in enumerate(orders):
        pairs.setdefault(min(label.k, 1 - label.k), []).append(i)
    results: list = [None] * len(orders)
    for members in pairs.values():
        shared: dict[int, ComplexFieldGrid] = {}  # set index -> this pair's field
        for i in members:
            results[i] = read(orders[i], shared, last=i == members[-1])
            if sink is not None:
                results[i] = sink(results[i])
    return results
