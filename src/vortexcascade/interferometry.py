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
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .beams import BeamParams, LGModeIndex, lg_mode_field, loop_sample_count, sample_on_circle
from .cascade import RamanConfig, SidebandLabel, observed_sideband
from .errors import AliasingError, GridMismatchError, RegionError, VortexCascadeError
from .grids import ComplexFieldGrid, GridSpec
from .units import wavelength_from_omega

TWO_PI = 2.0 * math.pi
# focal-plane sampling of every order: the synthetic aperture is this many
# times the source frame (see PanelGeometry)
OVERSAMPLE = 4


def _wrap(a):
    """Phase differences wrapped into [-pi, pi)."""
    return np.mod(a + math.pi, TWO_PI) - math.pi


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


def _coarse_samples_in(lo: int, hi: int, n: int, m: int) -> np.ndarray:
    """Mask of the m coarse samples whose fine position lies in [lo, hi - 1]."""
    scaled = (n // 2) * m + (np.arange(m) - m // 2) * n  # fine position times m
    return (scaled >= lo * m) & (scaled <= (hi - 1) * m)


@dataclass(frozen=True)
class Interferogram:
    """Non-negative intensity grid plus carrier-tilt metadata."""

    spec: GridSpec
    intensity: np.ndarray
    carrier: tuple[float, float]  # (angle_x, angle_y) radians of relative tilt
    wavelength: float
    label: SidebandLabel | None = None

    def __post_init__(self):
        vals = np.array(self.intensity, dtype=np.float64, copy=True)
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

    def with_carrier_sign_flipped(self) -> "Interferogram":
        return replace(self, carrier=(-self.carrier[0], -self.carrier[1]))

    @cached_property
    def half_spectrum(self) -> np.ndarray:
        """rfft2 of the intensity: the bins kx >= 0, shape (ny, nx//2 + 1).

        The intensity is real, so this half holds the whole spectrum
        (F(-k) = conj(F(k))); carrier detection and demodulation share it.
        """
        return np.fft.rfft2(self.intensity)


@dataclass(frozen=True)
class ChargeReading:
    """Signed charge, confidence in [0, 1], and the method that produced it."""

    ell: int
    confidence: float
    method: str = "circulation"

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.method not in ("circulation", "fork_count"):
            raise ValueError(f"unknown method {self.method!r}")


def synthesize_interferogram(
    vortex: ComplexFieldGrid,
    reference: ComplexFieldGrid,
    tilt: float,
    offset_y: float = 0.0,
    label: SidebandLabel | None = None,
) -> Interferogram:
    """|vortex + reference * exp(i*k*tilt*x)|^2, reference shifted by offset_y.

    Fringe period is lambda/tilt for small angles. The vertical offset rolls
    the reference by whole samples (tails wrap; keep offsets small against
    the aperture).
    """
    if vortex.spec != reference.spec:
        raise GridMismatchError("vortex and reference grids differ")
    if not math.isclose(vortex.wavelength, reference.wavelength, rel_tol=1e-9):
        raise ValueError(
            f"wavelengths differ: {vortex.wavelength:g} vs {reference.wavelength:g}"
        )
    spec = vortex.spec
    lam = vortex.wavelength
    if abs(tilt) >= lam / (2.0 * spec.dx):
        raise AliasingError(
            f"tilt {tilt:g} rad at or beyond the Nyquist angle {lam / (2 * spec.dx):g} rad"
        )
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


def detect_carrier(gram: Interferogram, sign_hint: int = 1) -> tuple[float, float] | None:
    """Carrier angles from the dominant off-axis spectral peak, or None.

    The spectrum of a two-beam pattern is conjugate-symmetric, so only the
    half-plane fx >= 0 is searched; sign_hint = -1 selects the mirrored
    carrier (the sign of the angle between the beams is the one thing the
    pattern itself cannot tell).
    """
    ny, nx = gram.intensity.shape
    spectrum = np.abs(gram.half_spectrum)
    by = _fft_order(ny)[:, None]  # signed bins; columns are bx = 0 .. nx//2
    bx = np.arange(nx // 2 + 1)[None, :]
    r2_bins = bx**2 + by**2

    # The baseband envelope lobe can out-shine the carrier well past DC, so
    # exclude it adaptively: walk the radial max-profile of the spectrum out
    # to where it has decayed for good, then place the carrier at the power
    # centroid of the remaining half-plane (the sideband of a fork pattern
    # is a plateau or donut around the carrier, which defeats simple argmax).
    r_idx = np.minimum(np.round(np.sqrt(r2_bins)).astype(int), min(nx, ny) // 2)
    profile = np.zeros(min(nx, ny) // 2 + 1)
    np.maximum.at(profile, r_idx.ravel(), spectrum.ravel())
    ref = float(np.max(profile[1:4]))
    if ref <= 0:
        return None
    quiet = profile < 0.05 * ref
    r_dc = None
    for r in range(2, quiet.size - 2):
        if quiet[r] and quiet[r + 1] and quiet[r + 2]:
            r_dc = r
            break
    if r_dc is None:
        return None
    # the open half-plane of the full spectrum: bx in (0, nx/2), or bx = 0
    # with by > 0 (the column bx = nx/2 of an even frame is its own mirror)
    band = (r2_bins >= r_dc**2) & (((bx > 0) & (2 * bx < nx)) | ((bx == 0) & (by > 0)))
    rows, cols = np.nonzero(band)
    if rows.size == 0:
        return None
    values = spectrum[rows, cols]
    peak_val = float(np.max(values))
    noise_floor = float(np.median(values))
    if peak_val <= 0 or (noise_floor > 0 and peak_val < 10.0 * noise_floor):
        return None
    power = values**2
    total = float(np.sum(power))
    fx = float(np.sum(cols * power) / total) / (nx * gram.spec.dx)
    fy = float(np.sum(by[rows, 0] * power) / total) / (ny * gram.spec.dy)
    if sign_hint < 0:
        fx, fy = -fx, -fy
    return (fx * gram.wavelength, fy * gram.wavelength)


def _demodulate(gram: Interferogram, carrier: tuple[float, float]):
    """Isolate the +carrier sideband on a decimated grid; return (D, I_lowpass, spec).

    Fourier-transform fringe analysis with spectral cropping (Takeda, Ina &
    Kobayashi, JOSA 72, 156, 1982). The sideband is band-limited to
    r_mask = |carrier|/2 bins around the carrier, so only an M x M patch of
    the half spectrum is kept around the carrier and another around DC, with
    M = min(n, next power of two >= 4*r_mask) per axis. Each patch gets the
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
    cbx = carrier[0] / gram.wavelength * spec.nx * spec.dx
    cby = carrier[1] / gram.wavelength * spec.ny * spec.dy
    c_mag = math.hypot(cbx, cby)
    if c_mag < 3.0:
        raise ValueError("carrier too close to DC to demodulate")
    r_mask = 0.5 * c_mag
    crop = 1 << math.ceil(math.log2(4.0 * r_mask))
    mx, my = min(spec.nx, crop), min(spec.ny, crop)
    coarse = GridSpec(nx=mx, ny=my, dx=spec.dx * spec.nx / mx, dy=spec.dy * spec.ny / my)
    half = gram.half_spectrum

    def _band(cx, cy):
        bx, sx, rx = _crop_axis(spec.nx, mx, cx)
        by, sy, ry = _crop_axis(spec.ny, my, cy)
        dist = np.hypot(bx[None, :] - cx, by[:, None] - cy)
        w = 0.5 * (1.0 + np.cos(np.pi * np.minimum(dist / r_mask, 1.0)))
        w = np.where(dist <= r_mask, w, 0.0)
        cols = np.abs(bx)
        patch = np.where(
            bx[None, :] >= 0,
            half[np.ix_(by % spec.ny, cols)],
            np.conj(half[np.ix_(-by % spec.ny, cols)]),
        )
        side = np.fft.ifft2(patch * w * (sy[:, None] * sx[None, :]))
        return side * (ry[:, None] * rx[None, :])

    return _band(cbx, cby), _band(0.0, 0.0).real, coarse


def _winding_on_circle(
    values: np.ndarray, spec: GridSpec, center_xy: tuple[float, float], radius: float
) -> float:
    n = loop_sample_count(spec, radius)
    ph = np.angle(sample_on_circle(values, spec, radius, n, center_xy))
    d = _wrap(np.diff(ph, append=ph[:1]))
    return float(np.sum(d) / TWO_PI)


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
) -> list[tuple[float, float]]:
    """Candidate singularity positions of the demodulated field.

    Two independent locators, both evaluated by the caller's winding
    consensus: (1) the strongest cluster of +-2*pi phase-circulation cells
    embedded in real fringe signal, which resolves shallow cores whose
    envelope dip is weak; (2) the deepest envelope hole inside the fringe
    annulus (ties broken toward the axis), which handles wide dark cores
    and the charge-0 case where no true singular cell exists.
    """
    sigma_big = max(3.0, min(spec.nx, spec.ny) / 64.0)
    local = _gaussian_filter(env, sigma_big)
    xx, yy = spec.meshes()
    rr = np.hypot(xx, yy)
    central = rr <= 0.35 * min(spec.extent_x, spec.extent_y)
    candidates: list[tuple[float, float]] = []

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
        cyy, cxx = np.mgrid[0 : wind.shape[0], 0 : wind.shape[1]]
        near = singular & (np.hypot(cxx - ix, cyy - iy) <= 5.0)
        w = np.abs(wind)[near] * np.maximum(cell_local[near], 0.0)
        fx, fy = float(ix), float(iy)
        if float(np.sum(w)) > 0:
            fx = float(np.sum(cxx[near] * w) / np.sum(w))
            fy = float(np.sum(cyy[near] * w) / np.sum(w))
        candidates.append(
            ((fx + 0.5 - spec.nx // 2) * spec.dx, (fy + 0.5 - spec.ny // 2) * spec.dy)
        )

    # centroid of the fringe signal: immune to isolated noise nulls, and for
    # a centered pattern it coincides with the core anyway
    w2 = np.where(local >= 0.1 * float(local.max()), env**2, 0.0)
    total = float(np.sum(w2))
    if total > 0:
        candidates.append(
            (float(np.sum(xx * w2) / total), float(np.sum(yy * w2) / total))
        )

    sm = _gaussian_filter(env, 1.0)
    search = central & (local >= 0.1 * float(local.max()))
    if not np.any(search):
        search = central
    masked = np.where(search, sm, np.inf)
    flat_min = np.min(masked)
    ties = np.argwhere(masked <= flat_min * (1.0 + 1e-12) + 1e-300)
    best = min(ties.tolist(), key=lambda ij: (rr[ij[0], ij[1]], ij[0], ij[1]))
    candidates.append((float(xx[best[0], best[1]]), float(yy[best[0], best[1]])))
    return candidates


def _signal_ring_radius(
    env: np.ndarray, spec: GridSpec, center_xy: tuple[float, float]
) -> float:
    """Radius of strongest envelope around the core (best winding circle)."""
    xx, yy = spec.meshes()
    r = np.hypot(xx - center_xy[0], yy - center_xy[1])
    dr = max(spec.dx, spec.dy)
    idx = (r / dr).astype(np.int64)
    nbins = int(0.45 * min(spec.extent_x, spec.extent_y) / dr)
    counts = np.bincount(idx.ravel(), minlength=nbins)[:nbins]
    sums = np.bincount(idx.ravel(), weights=env.ravel(), minlength=nbins)[:nbins]
    prof = sums / np.maximum(counts, 1)
    j = int(np.argmax(prof))
    return max((j + 0.5) * dr, 4.0 * dr)


def extract_charge(
    gram: Interferogram,
    carrier: tuple[float, float] | None = None,
    sign_hint: int = 1,
) -> ChargeReading:
    """Signed topological charge of the vortex arm relative to the reference.

    Uses the carrier metadata unless an explicit carrier (angle_x, angle_y)
    is passed; when both are absent or zero it falls back to spectral
    detection. Returns ell=0 with zero confidence when no carrier or no
    fringe signal is present; an ambiguous circulation (further than 0.25
    from an integer) is returned flagged with low confidence, not raised.

    Everything after the demodulation runs on its coarse grid (see
    _demodulate): core candidates, ring radius, windings and the visibility
    band, at pitch dx*nx/M with M = min(n, next power of two >= 2*|carrier|
    in bins), e.g. 64 x 64 samples for a 32-fringe carrier at 256 or 512.
    """
    if carrier is None:
        carrier = gram.carrier
    if math.hypot(*carrier) / gram.wavelength * min(gram.spec.extent_x, gram.spec.extent_y) < 3.0:
        detected = detect_carrier(gram, sign_hint)
        if detected is None:
            return ChargeReading(0, 0.0, "circulation")
        carrier = detected

    D, i_lp, spec = _demodulate(gram, carrier)
    env = np.abs(D)
    if float(env.max()) < 1.0e-9 * max(float(i_lp.max()), 1e-300):
        return ChargeReading(0, 0.0, "circulation")

    pitch = max(spec.dx, spec.dy)
    r_hi = 0.45 * min(spec.extent_x, spec.extent_y) - 2.0 * pitch

    best: tuple[float, int, tuple[float, float], float] | None = None
    for core in _core_candidates(D, env, spec):
        r_sig = _signal_ring_radius(env, spec, core)
        radii = [min(max(f * r_sig, 4.0 * pitch), r_hi) for f in (0.6, 1.0, 1.4)]
        windings = [_winding_on_circle(D, spec, core, r) for r in radii]
        # conj(V)*R winds by ell(R)-ell(V); report ell(V)-ell(R)
        circulations = [-w for w in windings]
        ell = int(round(float(np.median(circulations))))
        spread = max(abs(c - ell) for c in circulations)
        if best is None or spread < best[0] - 1e-9:
            best = (spread, ell, core, r_sig)
    spread, ell, core, r_sig = best
    integer_conf = max(0.0, 1.0 - spread / 0.5)

    ring = np.hypot(*(np.array(spec.meshes()) - np.array(core)[:, None, None]))
    band = (ring >= 0.8 * r_sig) & (ring <= 1.2 * r_sig) & (i_lp > 1e-12 * i_lp.max())
    if np.any(band):
        vis = float(np.median(2.0 * env[band] / i_lp[band]))
    else:
        vis = 0.0
    confidence = float(np.clip(integer_conf * np.clip(vis, 0.0, 1.0) ** 0.25, 0.0, 1.0))
    return ChargeReading(ell, confidence, "circulation")


def fork_fringe_count(
    gram: Interferogram, carrier: tuple[float, float] | None = None
) -> ChargeReading:
    """Literal fringe-count readout: winding difference along two cuts.

    Counts interference fringes crossing two lines parallel to the carrier,
    just above and just below the singularity; the difference equals the
    charge. A cross-validation for the circulation method on clean patterns.
    """
    if carrier is None:
        carrier = gram.carrier
    D, _, spec = _demodulate(gram, carrier)
    env = np.abs(D)
    core = _core_candidates(D, env, spec)[0]
    r_sig = _signal_ring_radius(env, spec, core)

    iy_core = int(round(core[1] / spec.dy)) + spec.ny // 2
    ix_core = int(round(core[0] / spec.dx)) + spec.nx // 2
    d_rows = max(3, int(round(0.5 * r_sig / spec.dy)))
    row_a = min(iy_core + d_rows, spec.ny - 1)
    row_b = max(iy_core - d_rows, 0)

    half_w = int(round(2.5 * r_sig / spec.dx))
    x_lo = max(ix_core - half_w, 0)
    x_hi = min(ix_core + half_w + 1, spec.nx)
    if x_hi - x_lo < 8:
        raise RegionError("fringe-count cuts would be shorter than 8 samples")

    # the carrier adds the same phase along both equal cuts, so the fringe
    # count difference is the winding difference of the demodulated field
    def _winding_along(row: int) -> float:
        ph = np.unwrap(np.angle(D[row, x_lo:x_hi]))
        return (ph[-1] - ph[0]) / TWO_PI

    ell_f = _winding_along(row_a) - _winding_along(row_b)
    ell = int(round(ell_f))
    conf = max(0.0, 1.0 - abs(ell_f - ell) / 0.5)
    return ChargeReading(ell, conf, "fork_count")


def fringe_visibility(
    gram: Interferogram,
    region: tuple[tuple[int, int], tuple[int, int]] | None = None,
    carrier: tuple[float, float] | None = None,
) -> float:
    """(Imax-Imin)/(Imax+Imin) of the fringes from the demodulated envelope.

    region is ((y0, y1), (x0, x1)) in samples, slice semantics; default is
    the central half of the frame. The region must span at least three
    fringe periods along the carrier.
    """
    spec = gram.spec
    if region is None:
        region = (
            (spec.ny // 4, spec.ny - spec.ny // 4),
            (spec.nx // 4, spec.nx - spec.nx // 4),
        )
    (y0, y1), (x0, x1) = region
    if not (0 <= y0 < y1 <= spec.ny and 0 <= x0 < x1 <= spec.nx):
        raise RegionError(f"region {region} out of bounds for {spec.ny}x{spec.nx}")
    if carrier is None:
        carrier = gram.carrier
    fx_c = abs(carrier[0]) / gram.wavelength
    fy_c = abs(carrier[1]) / gram.wavelength
    crossings = (x1 - x0) * spec.dx * fx_c + (y1 - y0) * spec.dy * fy_c
    if crossings < 3.0:
        raise RegionError(
            f"region spans {crossings:.2f} fringe periods; need at least 3"
        )
    D, i_lp, coarse = _demodulate(gram, carrier)
    inside = np.ix_(
        _coarse_samples_in(y0, y1, spec.ny, coarse.ny),
        _coarse_samples_in(x0, x1, spec.nx, coarse.nx),
    )
    env = np.abs(D[inside])
    if env.size == 0:
        raise RegionError(
            f"region {region} holds no sample of the {coarse.ny}x{coarse.nx} demodulated grid"
        )
    base = i_lp[inside]
    good = base > 1e-12 * float(np.max(i_lp))
    if not np.any(good):
        return 0.0
    vis = 2.0 * env[good] / base[good]
    return float(np.clip(np.mean(vis), 0.0, 1.0))


@dataclass(frozen=True)
class PanelGeometry:
    """Rendering geometry for the double-source sideband experiment.

    Sidebands are observed in the focal plane of an effective lens through a
    synthetic aperture OVERSAMPLE times the source frame, which resolves
    the focal patterns with OVERSAMPLE times more samples while keeping one
    observation grid for every order. The carrier is specified as a fringe
    count across the frame (default nx/8) so each order's interferogram is
    demodulated at the same spectral position.
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
) -> list[OrderResult]:
    """Full per-order pipeline: sidebands of a vortex set and an ell=0
    reference set, observed in the focal plane, interfered, and read out.

    Failures in one order are recorded in its status and do not abort the
    others. Results follow the requested order list.
    """
    lam_p = wavelength_from_omega(cfg.omega_p)
    lam_s = wavelength_from_omega(cfg.omega_s)
    spec = geometry.spec
    pump_v = lg_mode_field(LGModeIndex(0, cfg.ell_p), BeamParams(geometry.waist, lam_p), spec)
    stokes_v = lg_mode_field(LGModeIndex(0, cfg.ell_s), BeamParams(geometry.waist, lam_s), spec)
    pump_r = lg_mode_field(LGModeIndex(0, 0), BeamParams(geometry.waist, lam_p), spec)
    stokes_r = lg_mode_field(LGModeIndex(0, 0), BeamParams(geometry.waist, lam_s), spec)

    results: list[OrderResult] = []
    for label in orders:
        try:
            vortex = observed_sideband(pump_v, stokes_v, label, oversample=OVERSAMPLE)
            reference = observed_sideband(pump_r, stokes_r, label, oversample=OVERSAMPLE)
            tilt = geometry.fringe_count() * vortex.wavelength / (
                vortex.spec.nx * vortex.spec.dx
            )
            gram = synthesize_interferogram(
                vortex, reference, tilt, geometry.offset_y, label=label
            )
            if geometry.noise_fraction > 0.0:
                rng = np.random.default_rng((geometry.seed, label.k + 10_000))
                gram = add_intensity_noise(gram, geometry.noise_fraction, rng)
            reading = extract_charge(gram)
            results.append(
                OrderResult(
                    label=label,
                    status="ok",
                    reading=reading,
                    beam_intensity=vortex.intensity(),
                    fork_intensity=gram.intensity,
                )
            )
        except (VortexCascadeError, ValueError) as exc:
            results.append(OrderResult(label=label, status=f"error: {exc}"))
    return results
