"""Synthetic single-pulse fringe frames and the digital-frame estimators.

A frame stack holds n single-pulse camera frames of a two-source fringe
pattern whose phase varies from pulse to pulse.  Processing follows the
digital route: average a region of interest over rows to get per-pulse
profiles I_j(x), then form frame-averaged correlation profiles

    mean profile:   I(x)  = <I_j(x)>
    third order :   g3(x) = <I_j(x) I_j(0) I_j(-x)>   / [I(x) I(0) I(-x)]
    fourth order:   g4(x) = <I_j(x) I_j(0) I_j(-x) I_j(-2x)>
                            / [I(x) I(0) I(-x) I(-2x)]

with pixel offsets x measured from a reference column and converted to
phase via 2*pi / fringe period.  The symmetric argument choices maximize
the visibility; they correspond to scanning two detectors in opposite
directions (third order) and adding a double-speed detector (fourth).

The synthesizer draws a source realization per pulse and renders

    I(x, y) = env(x) [Ia + Ib + 2 sqrt(Ia Ib) cos(2 pi x / period + theta)]
              * peak_level / (4 * mean_intensity)

followed by the camera noise chain: Poisson shot noise, additive Gaussian
read noise, clamping, quantization to the configured bit depth.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analytic import InterferencePattern
from .constants import DEFAULT_SEED
from .errors import (
    AllZeroPattern,
    BadOptics,
    DivisionByZeroMean,
    ReferenceOutOfRange,
    RoiOutOfBounds,
)
from .sources import SourceModel, sample_batch

# Default incommensurate drive frequency (cycles per frame) so that a
# harmonic phase sequence equidistributes over its cycle.
GOLDEN_FRACTION = 0.6180339887498949

# Harmonic-drive amplitude (radians) at which harmonic phase modulation
# reproduces uniform-phase correlation averages.  A drive this large wraps
# the phase ~50 times around the circle, so the wrapped distribution is
# close to uniform: the time averages of exp(i k theta), which equal
# J0(k A), are simultaneously small for k = 1, 2, 3 (|J0| < 0.015 here).
# The value minimizes the stderr-weighted third-order profile deviation
# over A <= 320; see the calibration test.
HARMONIC_AMPLITUDE_CALIBRATED = 316.843


@dataclass(frozen=True)
class NoiseModel:
    """Camera noise: Poisson shot noise plus Gaussian read noise (counts)."""

    gaussian_sigma: float = 300.0
    poisson: bool = True

    @classmethod
    def none(cls) -> "NoiseModel":
        return cls(gaussian_sigma=0.0, poisson=False)


@dataclass(frozen=True)
class HarmonicModulation:
    """Deterministic pulse phases theta_j = amplitude sin(2 pi frequency j)."""

    amplitude: float = HARMONIC_AMPLITUDE_CALIBRATED
    frequency: float = GOLDEN_FRACTION


@dataclass(frozen=True)
class FrameOptics:
    """Synthetic camera/optics configuration.

    ``envelope_fwhm_px`` is the FWHM of a Gaussian intensity envelope
    centered on the frame (None for a flat pattern).  ``peak_level`` is the
    nominal full-scale count of a coherent fringe maximum.
    """

    fringe_period_px: float = 60.0
    envelope_fwhm_px: float | None = None
    peak_level: float = 30000.0
    noise: NoiseModel = field(default_factory=NoiseModel)
    bit_depth: int | None = 16
    frame_width: int = 600
    frame_height: int = 50


def check_pixels(frames: np.ndarray, bit_depth: int | None) -> None:
    """Raise ValueError unless the pixels are nonnegative and, under a bit
    depth, integral and inside its range.

    Run it on values as read, before any cast to an integer dtype, which
    would wrap out-of-range values silently.
    """
    if frames.min() < 0:
        raise ValueError("pixel values must be nonnegative")
    if bit_depth is not None:
        if frames.max() >= 2 ** bit_depth:
            raise ValueError(f"pixel values exceed the {bit_depth}-bit range")
        if not np.issubdtype(frames.dtype, np.integer):
            if np.any(frames != np.rint(frames)):
                raise ValueError("bit-depth-limited stacks must hold integer values")


@dataclass(frozen=True)
class FrameStack:
    """n single-pulse frames plus the optical metadata needed to process them."""

    frames: np.ndarray
    fringe_period_px: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        frames = np.asarray(self.frames)
        if frames.ndim != 3 or frames.shape[0] < 1:
            raise ValueError(f"frames must be a (n, height, width) array, got shape {frames.shape}")
        if not self.fringe_period_px > 0:
            raise BadOptics(f"fringe_period_px must be positive, got {self.fringe_period_px!r}")
        check_pixels(frames, self.metadata.get("bit_depth"))
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self) -> tuple:
        return self.frames.shape[1:]


@dataclass(frozen=True)
class RoiSpec:
    """Pixel rectangle averaged over rows, with the x = 0 reference column.

    ``reference_column`` is relative to the ROI's left edge.
    """

    x0: int = 0
    y0: int = 0
    width: int = 600
    height: int = 50
    reference_column: int = 300


@dataclass(frozen=True)
class ProcessedSeries:
    """Per-pulse row-averaged intensity profiles I_j(x) over the ROI."""

    profiles: np.ndarray  # (n_frames, roi_width)
    reference_column: int
    pixel_to_phase: float  # 2*pi / fringe period
    # ROI pixels at the full-scale count 2**bit_depth - 1 (0 without a bit depth)
    saturated_pixels: int = 0

    @property
    def n_frames(self) -> int:
        return self.profiles.shape[0]

    @property
    def width(self) -> int:
        return self.profiles.shape[1]


def _envelope_row(width: int, fwhm: float | None) -> np.ndarray:
    x = np.arange(width, dtype=float)
    if fwhm is None:
        return np.ones(width)
    center = 0.5 * (width - 1)
    return np.exp(-4.0 * math.log(2.0) * ((x - center) / fwhm) ** 2)


def synth_frames(model: SourceModel, optics: FrameOptics | None = None,
                 n: int = 500, seed: int | None = None,
                 modulation: HarmonicModulation | None = None,
                 workers: int = 1) -> FrameStack:
    """Render n single-pulse fringe frames.

    Pulse phases are uniform random draws unless a harmonic ``modulation``
    is given (amplitude 0 freezes the pattern).  Each frame draws from its
    own seeded substream, so the stack is reproducible bit-for-bit for any
    worker count.
    """
    optics = optics or FrameOptics()
    if n < 1:
        raise ValueError(f"need at least one frame, got n = {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not optics.fringe_period_px >= 4:
        raise BadOptics(
            f"fringe_period_px must be >= 4 px (Nyquist margin), got {optics.fringe_period_px!r}")
    if not optics.peak_level > 0:
        raise BadOptics(f"peak_level must be positive, got {optics.peak_level!r}")
    if optics.bit_depth is not None and not 1 <= optics.bit_depth <= 32:
        raise BadOptics(f"bit_depth must be in 1..32, got {optics.bit_depth!r}")

    height, width = optics.frame_height, optics.frame_width
    envelope = _envelope_row(width, optics.envelope_fwhm_px)
    column_phase = 2.0 * np.pi * np.arange(width) / optics.fringe_period_px
    scale = optics.peak_level / (4.0 * model.mean_intensity)
    sigma = optics.noise.gaussian_sigma
    noisy = optics.noise.poisson or sigma > 0

    if optics.bit_depth is None:
        dtype = np.float64
        vmax = None
    else:
        dtype = np.uint16 if optics.bit_depth <= 16 else np.uint32
        vmax = float(2 ** optics.bit_depth - 1)

    out = np.empty((n, height, width), dtype=dtype)
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    frame_seeds = root.spawn(n)

    if modulation is not None:
        thetas = modulation.amplitude * np.sin(
            2.0 * np.pi * modulation.frequency * np.arange(n))
    else:
        thetas = None

    def render(j: int):
        rng = np.random.default_rng(frame_seeds[j])
        ia, ib, th = sample_batch(model, rng, 1)
        theta = thetas[j] if thetas is not None else th[0]
        row = envelope * (ia[0] + ib[0] + 2.0 * np.sqrt(ia[0] * ib[0])
                          * np.cos(column_phase + theta)) * scale
        if not noisy:
            img = np.broadcast_to(row, (height, width))
        else:
            img = rng.poisson(lam=np.broadcast_to(row, (height, width))).astype(float) \
                if optics.noise.poisson else np.tile(row, (height, 1))
            if sigma > 0:
                img = img + rng.normal(0.0, sigma, (height, width))
        if vmax is None:
            out[j] = np.maximum(img, 0.0)
        else:
            out[j] = np.rint(np.clip(img, 0.0, vmax))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(render, range(n)))
    else:
        for j in range(n):
            render(j)

    if modulation is not None:
        phase_modulation = {"type": "harmonic",
                            "amplitude": modulation.amplitude,
                            "frequency": modulation.frequency}
    else:
        phase_modulation = {"type": "uniform"}
    metadata = {
        "kind": model.kind,
        "mean_intensity": model.mean_intensity,
        "envelope_fwhm_px": optics.envelope_fwhm_px,
        "peak_level": optics.peak_level,
        "noise": {"gaussian_sigma": sigma, "poisson": optics.noise.poisson},
        "bit_depth": optics.bit_depth,
        "phase_modulation": phase_modulation,
    }
    return FrameStack(frames=out, fringe_period_px=optics.fringe_period_px,
                      metadata=metadata)


def roi_average(stack, roi: RoiSpec | None = None) -> ProcessedSeries:
    """Row-average the ROI of every frame into 1-D intensity profiles.

    ``stack`` is a FrameStack or a ``frameio.FrameReader``.  Frames are
    reduced one at a time, so a reader never holds more than one frame
    besides the profiles.  ROI pixels at full scale are counted on the way.
    """
    roi = roi or RoiSpec()
    height, width = stack.shape
    if (roi.x0 < 0 or roi.y0 < 0 or roi.width < 1 or roi.height < 1
            or roi.x0 + roi.width > width or roi.y0 + roi.height > height):
        raise RoiOutOfBounds(
            f"ROI {roi.width}x{roi.height} at ({roi.x0}, {roi.y0}) does not fit "
            f"a {width}x{height} frame")
    if not 0 <= roi.reference_column < roi.width:
        raise RoiOutOfBounds(
            f"reference column {roi.reference_column} outside ROI width {roi.width}")
    bit_depth = stack.metadata.get("bit_depth")
    full_scale = 2 ** bit_depth - 1 if bit_depth is not None else None
    frames = stack.frames if isinstance(stack, FrameStack) else stack
    profiles = np.empty((stack.n_frames, roi.width))
    saturated = 0
    for j, frame in enumerate(frames):
        crop = frame[roi.y0:roi.y0 + roi.height, roi.x0:roi.x0 + roi.width]
        crop.mean(axis=0, dtype=np.float64, out=profiles[j])
        if full_scale is not None:
            saturated += int(np.count_nonzero(crop == full_scale))
    return ProcessedSeries(profiles=profiles,
                           reference_column=roi.reference_column,
                           pixel_to_phase=2.0 * np.pi / stack.fringe_period_px,
                           saturated_pixels=saturated)


def mean_profile(series: ProcessedSeries) -> np.ndarray:
    """Frame-averaged intensity profile I(x)."""
    return series.profiles.mean(axis=0)


def _correlation_profile(series: ProcessedSeries, column_sets: np.ndarray,
                         xs_px: np.ndarray, n_batches: int) -> InterferencePattern:
    """Frame-averaged product profile over the given column tuples.

    ``column_sets`` has shape (n_points, n_args); the value at point p is
    mean_j prod_a profiles[j, columns[p, a]] normalized by the product of
    the mean-profile values at the same columns.
    """
    profiles = series.profiles
    mean = profiles.mean(axis=0)
    peak = float(mean.max())
    used = np.unique(column_sets)
    if peak <= 0.0 or np.any(mean[used] < 1e-12 * peak):
        raise DivisionByZeroMean(
            "mean profile vanishes at a column used by the correlation arguments")

    def ratio(prof: np.ndarray) -> np.ndarray:
        prods = prof[:, column_sets].prod(axis=2)  # (n_frames, n_points)
        m = prof.mean(axis=0)
        return prods.mean(axis=0) / m[column_sets].prod(axis=1)

    values = ratio(profiles)
    n = profiles.shape[0]
    stderrs = None
    if n_batches >= 2 and n >= 2 * n_batches:
        size = n // n_batches
        batch_ratios = np.stack([
            ratio(profiles[b * size:(b + 1) * size]) for b in range(n_batches)])
        stderrs = batch_ratios.std(axis=0, ddof=1) / math.sqrt(n_batches)
    return InterferencePattern(xs=xs_px * series.pixel_to_phase,
                               values=values, stderrs=stderrs)


def g3_profile(series: ProcessedSeries, n_batches: int = 10) -> InterferencePattern:
    """Third-order correlation profile at arguments (x, 0, -x)."""
    r, w = series.reference_column, series.width
    x_max = min(r, w - 1 - r)
    if x_max < 1:
        raise ReferenceOutOfRange(
            f"reference column {r} leaves no admissible offsets in width {w}")
    xs_px = np.arange(1, x_max + 1)
    cols = np.stack([r + xs_px, np.full_like(xs_px, r), r - xs_px], axis=1)
    return _correlation_profile(series, cols, xs_px, n_batches)


def g4_profile(series: ProcessedSeries, n_batches: int = 10) -> InterferencePattern:
    """Fourth-order correlation profile at arguments (x, 0, -x, -2x)."""
    r, w = series.reference_column, series.width
    if not (w / 4 < r < 3 * w / 4):
        raise ReferenceOutOfRange(
            f"fourth-order profiles need the reference column strictly inside "
            f"[width/4, 3*width/4]; got {r} for width {w}")
    x_max = min(r // 2, w - 1 - r)
    if x_max < 1:
        raise ReferenceOutOfRange(
            f"reference column {r} leaves no admissible offsets in width {w}")
    xs_px = np.arange(1, x_max + 1)
    cols = np.stack([r + xs_px, np.full_like(xs_px, r), r - xs_px, r - 2 * xs_px],
                    axis=1)
    return _correlation_profile(series, cols, xs_px, n_batches)


def fringe_visibility(profile: np.ndarray, period_px: float) -> float:
    """Modulation depth of a profile at the fringe period.

    Projects the profile on exp(-2 pi i x / period); for a clean fringe
    c (1 + V cos(...)) spanning whole periods this returns V exactly, and it
    ignores smooth envelope structure (unlike a raw max/min ratio).
    """
    profile = np.asarray(profile, dtype=float)
    total = profile.sum()
    if total <= 0:
        raise AllZeroPattern("profile has no positive signal")
    x = np.arange(profile.size)
    z = np.sum(profile * np.exp(-2j * np.pi * x / period_px))
    return float(2.0 * np.abs(z) / total)


def estimate_fringe_period(frame: np.ndarray) -> float:
    """Fringe period (px) from the dominant spatial-frequency peak.

    Accepts a single frame (rows are averaged) or a 1-D profile; refines
    the FFT peak with a parabolic fit on the magnitude spectrum.
    """
    frame = np.asarray(frame, dtype=float)
    profile = frame.mean(axis=0) if frame.ndim == 2 else frame
    n = profile.size
    mag = np.abs(np.fft.rfft(profile - profile.mean()))
    if mag.size < 3:
        raise ValueError("profile too short to estimate a fringe period")
    k = int(np.argmax(mag[1:])) + 1
    if 1 <= k < mag.size - 1:
        a, b, c = mag[k - 1], mag[k], mag[k + 1]
        denom = a - 2 * b + c
        if denom != 0:
            k = k + 0.5 * (a - c) / denom
    return float(n / k)
