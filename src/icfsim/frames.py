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
phase via 2*pi / fringe period.  Values and batch-means stderrs come from
``montecarlo.ratio_of_means``, the Monte Carlo estimator, with one frame
per row.  The symmetric argument choices maximize the visibility; they
correspond to scanning two detectors in opposite directions (third order)
and adding a double-speed detector (fourth).

The synthesizer draws a source realization per pulse and renders

    I(x, y) = env(x) [Ia + Ib + 2 sqrt(Ia Ib) cos(2 pi x / period + theta)]
              * peak_level / 4

(Ia and Ib in units of their mean), then the camera noise chain: Poisson
shot noise, Gaussian read noise, clamping, quantization to the bit depth.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import InterferencePattern, scheme_deltas
from .errors import (
    AllZeroPattern,
    BadOptics,
    DivisionByZeroMean,
    IcfSimError,
    ReferenceOutOfRange,
    RoiOutOfBounds,
)
from .montecarlo import ratio_of_means, run_tasks
from .sources import SourceModel, rng_from_seed, sample_batch, spawn_seeds

# Pixels per render task: enough that small frames share their numpy calls,
# few enough that a task's float buffer stays at 1 MB, so that rendering on
# two threads adds little to peak memory (at 4 MB it added about 9 MB).
_TASK_PIXELS = 1 << 17

# Pixel bytes per block when a stack is read or reduced in blocks: enough
# that a block's numpy calls cost little per frame, little enough that
# reading a stack from disk holds about 1 MB of it besides the profiles.
_BLOCK_BYTES = 1 << 20

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
    nominal full-scale count of a coherent fringe maximum; None picks a
    level by source kind (see ``_default_peak_level``).
    """

    fringe_period_px: float = 60.0
    envelope_fwhm_px: float | None = None
    peak_level: float | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    bit_depth: int | None = 16
    frame_width: int = 600
    frame_height: int = 50


def pixel_format(bit_depth: int | None) -> tuple[type, int | None]:
    """Frame dtype and full-scale count 2^bits - 1 of a camera bit depth, or
    float64 and None for None; BadOptics unless an integer (not a bool) in 1..32."""
    if bit_depth is None:
        return np.float64, None
    integral = isinstance(bit_depth, (int, np.integer)) and not isinstance(bit_depth, bool)
    if not (integral and 1 <= bit_depth <= 32):
        raise BadOptics(f"bit_depth must be an integer in 1..32, got {bit_depth!r}")
    return (np.uint16 if bit_depth <= 16 else np.uint32), 2 ** int(bit_depth) - 1


def check_period(period_px: float, minimum: float = 0.0, width: int = 1) -> None:
    """Raise BadOptics unless ``period_px`` is finite, positive and >= ``minimum``,
    and the fringe phase 2 pi width/period_px across ``width`` columns is finite."""
    if not (0 < period_px < math.inf and period_px >= minimum):
        floor = f", at least {minimum:g} px (Nyquist margin)" if minimum else ""
        raise BadOptics(f"fringe_period_px must be positive and finite{floor}, got {period_px!r}")
    if 2.0 * math.pi * width / period_px == math.inf:
        raise BadOptics(f"fringe_period_px {period_px!r} is too small: the fringe phase "
                        f"across {width} px overflows float range")


def check_pixels(frames: np.ndarray, bit_depth: int | None) -> None:
    """Raise ValueError unless the pixels are finite, nonnegative and, under
    a bit depth, integral and inside its range.

    Run it on values as read, before any cast to an integer dtype, which
    would wrap out-of-range values silently.
    """
    if np.issubdtype(frames.dtype, np.floating) and not np.isfinite(frames).all():
        raise ValueError("pixel values must be finite")
    if frames.min() < 0:
        raise ValueError("pixel values must be nonnegative")
    if bit_depth is not None:
        if frames.max() > pixel_format(bit_depth)[1]:
            raise ValueError(f"pixel values exceed the {bit_depth}-bit range")
        if not np.issubdtype(frames.dtype, np.integer):
            if np.any(frames != np.rint(frames)):
                raise ValueError("bit-depth-limited stacks must hold integer values")


def block_frames(frame_bytes: int) -> int:
    """Frames per block for frames of ``frame_bytes`` bytes: ``_BLOCK_BYTES``
    worth, at least one."""
    return max(1, _BLOCK_BYTES // frame_bytes)


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
        check_period(self.fringe_period_px, width=frames.shape[2])
        check_pixels(frames, self.metadata.get("bit_depth"))
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def shape(self) -> tuple:
        return self.frames.shape[1:]

    def blocks(self):
        """The frames as consecutive views of ``block_frames`` frames each."""
        step = block_frames(self.frames[0].nbytes)
        for start in range(0, self.n_frames, step):
            yield self.frames[start:start + step]


@dataclass(frozen=True)
class RoiSpec:
    """Pixel rectangle averaged over rows, with the x = 0 reference column.

    ``reference_column`` is relative to the ROI's left edge.  ``fit`` runs a
    size left None to the frame's edge and puts a reference left None at
    ``width // 2``, so ``RoiSpec()`` is the whole frame.
    """

    x0: int = 0
    y0: int = 0
    width: int | None = None
    height: int | None = None
    reference_column: int | None = None

    def fit(self, shape: tuple) -> "RoiSpec":
        """This ROI on a frame of ``shape`` (height, width), every field set."""
        w = shape[1] - self.x0 if self.width is None else self.width
        h = shape[0] - self.y0 if self.height is None else self.height
        return RoiSpec(self.x0, self.y0, w, h,
                       w // 2 if self.reference_column is None else self.reference_column)


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


def _default_peak_level(model: SourceModel, full_scale: int | None) -> float:
    """Peak level used when the optics leave it unset.

    A noise-free thermal pixel is exponential with mean peak_level / 2 (the
    sum of two thermal fields is one thermal field of twice the mean
    intensity), so it reaches the full-scale count F = 2^bits - 1 with
    probability exp(-2 F / peak_level).  The thermal level 2 F / ln(1e7)
    (about 8130 at 16 bits) keeps that below 1e-7, so clipping does not
    bias the correlations.  Coherent pixels never exceed peak_level, and
    without a bit depth nothing clips: both keep 30000.
    """
    if model.kind == "thermal" and full_scale is not None:
        return 2.0 * full_scale / math.log(1e7)
    return 30000.0


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
    own seeded substream, the one ``SeedSequence(seed).spawn(n)`` gives it,
    whose state words ``spawn_seeds`` builds for every frame in one pass; so
    the stack is reproducible bit-for-bit for any worker count.  Frames are
    rendered in tasks of consecutive frames (``_TASK_PIXELS`` pixels, at
    least one frame), whose split depends on the frame shape only, by
    ``montecarlo.run_tasks`` on ``workers`` threads.  Every frame goes
    through one noise chain (Poisson or none, read noise, clamp, rounding
    under a bit depth); full-scale pixels are counted into the metadata as
    ``saturated_pixels`` and ``saturated_frames``.
    """
    optics = optics or FrameOptics()
    if n < 1:
        raise ValueError(f"need at least one frame, got n = {n}")
    check_period(optics.fringe_period_px, minimum=4)
    dtype, full_scale = pixel_format(optics.bit_depth)
    peak_level = optics.peak_level
    if peak_level is None:
        peak_level = _default_peak_level(model, full_scale)
    if not 0 < peak_level < math.inf:
        raise BadOptics(f"peak_level must be positive and finite, got {peak_level!r}")
    if not optics.noise.gaussian_sigma >= 0:
        raise BadOptics(f"gaussian_sigma must be >= 0, got {optics.noise.gaussian_sigma!r}")
    if optics.noise.gaussian_sigma == math.inf:
        raise BadOptics("gaussian_sigma must be finite, got inf")
    if optics.envelope_fwhm_px is not None and not optics.envelope_fwhm_px > 0:
        raise BadOptics(f"envelope_fwhm_px must be positive, got {optics.envelope_fwhm_px!r}")
    height, width = optics.frame_height, optics.frame_width
    if not (height >= 1 and width >= 1):
        raise BadOptics(f"frame_width and frame_height must be at least 1, got {width}x{height}")

    envelope = _envelope_row(width, optics.envelope_fwhm_px)
    column_phase = 2.0 * np.pi * np.arange(width) / optics.fringe_period_px
    scale = peak_level / 4.0
    sigma = optics.noise.gaussian_sigma

    out = np.empty((n, height, width), dtype=dtype)
    frame_seeds = spawn_seeds(seed, n)

    if modulation is not None:
        with np.errstate(all="ignore"):  # overflow and nan are rejected below
            thetas = modulation.amplitude * np.sin(
                2.0 * np.pi * modulation.frequency * np.arange(n))
        if not np.isfinite(thetas).all():
            raise BadOptics(f"harmonic drive amplitude {modulation.amplitude!r} and frequency "
                            f"{modulation.frequency!r} give non-finite phases")
    else:
        thetas = None

    per_task = max(1, _TASK_PIXELS // (height * width))

    def render(start: int):
        """Render one task's frames into ``out``; return their saturation counts."""
        stop = min(start + per_task, n)
        rngs = [rng_from_seed(words) for words in frame_seeds[start:stop]]
        ia, ib, th = (np.concatenate(d) for d in
                      zip(*(sample_batch(model, rng, 1) for rng in rngs)))
        theta = thetas[start:stop] if thetas is not None else th
        rows = envelope * ((ia + ib)[:, None] + (2.0 * np.sqrt(ia * ib))[:, None]
                           * np.cos(column_phase + theta[:, None])) * scale
        img = np.empty((stop - start, height, width))
        for frame, row, rng in zip(img, rows, rngs):
            try:
                frame[...] = rng.poisson(lam=np.broadcast_to(row, (height, width))) \
                    if optics.noise.poisson else row
            except ValueError as exc:  # a level too large for numpy's Poisson
                raise BadOptics(f"peak_level {peak_level!r}: {exc}") from exc
            if sigma > 0:
                frame += rng.normal(0.0, sigma, (height, width))
        np.clip(img, 0.0, math.inf if full_scale is None else full_scale, out=img)
        if full_scale is None:
            out[start:stop] = img
            return 0, 0
        out[start:stop] = np.rint(img, out=img)
        full = out[start:stop] == full_scale
        return int(np.count_nonzero(full)), int(np.count_nonzero(full.any(axis=(1, 2))))

    counts = run_tasks(render, range(0, n, per_task), workers)

    metadata = {
        "kind": model.kind,
        "envelope_fwhm_px": optics.envelope_fwhm_px,
        "peak_level": peak_level,
        "noise": asdict(optics.noise),
        "bit_depth": optics.bit_depth,
        "phase_modulation": ({"type": "uniform"} if modulation is None
                             else {"type": "harmonic", **asdict(modulation)}),
        "saturated_pixels": sum(p for p, _ in counts),
        "saturated_frames": sum(f for _, f in counts),
    }
    try:
        return FrameStack(frames=out, fringe_period_px=optics.fringe_period_px,
                          metadata=metadata)
    except ValueError as exc:  # float pixels that came out non-finite
        raise BadOptics(f"rendered frames rejected: {exc}") from None


def _sum_dtype(dtype: np.dtype, rows: int):
    """Unsigned dtype that sums ``rows`` pixels of integer ``dtype`` exactly,
    uint32 where it can, or None for float pixels and for sums that could
    reach 2^53, where float64 stops holding every integer."""
    if dtype.kind not in "ui":
        return None
    bound = rows * np.iinfo(dtype).max
    if bound >= 2 ** 53:
        return None
    return np.uint32 if bound <= np.iinfo(np.uint32).max else np.uint64


@np.errstate(over="ignore")  # a sum past float range is inf, rejected at the end
def roi_average(stack, roi: RoiSpec | None = None) -> ProcessedSeries:
    """Row-average the ROI of every frame into 1-D intensity profiles.

    ``stack`` is a FrameStack or a ``frameio.FrameReader``; both yield their
    frames in blocks of about ``_BLOCK_BYTES`` (``blocks()``), and each block
    is reduced with one call, so a reader holds one block besides the
    profiles.  Integer pixels are summed exactly (``_sum_dtype``) and the
    sums divided by the ROI height, which gives the bits of a float64 mean;
    other pixels take the float64 mean.  ROI pixels at full scale are
    counted once per block.
    """
    height, width = stack.shape
    roi = (roi or RoiSpec()).fit((height, width))
    if (roi.x0 < 0 or roi.y0 < 0 or roi.width < 1 or roi.height < 1
            or roi.x0 + roi.width > width or roi.y0 + roi.height > height):
        raise RoiOutOfBounds(
            f"ROI {roi.width}x{roi.height} at ({roi.x0}, {roi.y0}) does not fit "
            f"a {width}x{height} frame")
    if not 0 <= roi.reference_column < roi.width:
        raise RoiOutOfBounds(
            f"reference column {roi.reference_column} outside ROI width {roi.width}")
    full_scale = pixel_format(stack.metadata.get("bit_depth"))[1]
    rows, columns = slice(roi.y0, roi.y0 + roi.height), slice(roi.x0, roi.x0 + roi.width)
    profiles = np.empty((stack.n_frames, roi.width))
    saturated = start = 0
    for block in stack.blocks():
        crop = block[:, rows, columns]
        out = profiles[start:start + len(block)]
        accumulator = _sum_dtype(crop.dtype, roi.height)
        if accumulator is None:
            crop.mean(axis=1, dtype=np.float64, out=out)
        else:
            np.divide(crop.sum(axis=1, dtype=accumulator), roi.height, out=out)
        if full_scale is not None:
            saturated += int(np.count_nonzero(crop == full_scale))
        start += len(block)
    if not math.isfinite(profiles.sum()):
        raise IcfSimError("the ROI averages of these frames overflow float range")
    return ProcessedSeries(profiles=profiles,
                           reference_column=roi.reference_column,
                           pixel_to_phase=2.0 * np.pi / stack.fringe_period_px,
                           saturated_pixels=saturated)


def mean_profile(series: ProcessedSeries) -> np.ndarray:
    """Frame-averaged intensity profile I(x)."""
    return series.profiles.mean(axis=0)


def _scheme_profile(series: ProcessedSeries, order: int, scheme: str,
                    n_batches: int) -> InterferencePattern:
    """Frame-averaged product profile along a named scan scheme.

    The scheme's phases at x = 1 give column steps k; offsets x run over
    whole pixels, and the value at x is mean_j prod_k profiles[j, r + k x]
    normalized by the product of the mean-profile values at the same columns.
    """
    r, w = series.reference_column, series.width
    steps = np.array(scheme_deltas(order, scheme, 1.0), dtype=int)
    # every column r + k x must lie inside [0, w - 1]
    x_max = min((w - 1 - r) // steps.max(), r // -steps.min())
    if x_max < 1:
        raise ReferenceOutOfRange(
            f"reference column {r} leaves no admissible offsets in width {w}")
    xs_px = np.arange(1, x_max + 1)
    column_sets = r + np.outer(xs_px, steps)
    profiles = series.profiles
    mean = profiles.mean(axis=0)
    peak = float(mean.max())
    used = np.unique(column_sets)
    if peak <= 0.0 or np.any(mean[used] < 1e-12 * peak):
        raise DivisionByZeroMean(
            "mean profile vanishes at a column used by the correlation arguments")

    factors = profiles[:, column_sets]  # (n_frames, n_points, n_args)
    factors *= 2.0 ** -math.frexp(peak)[1]  # a power of two: products in range, same ratios
    try:  # the pooled mean is checked above, a batch of frames only here
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            values, stderrs = ratio_of_means(factors.prod(axis=-1), factors, 1, n_batches)
    except FloatingPointError:
        raise DivisionByZeroMean("the mean profile of a batch of frames vanishes at a column "
                                 "used by the correlation arguments") from None
    return InterferencePattern(xs=xs_px * series.pixel_to_phase,
                               values=values, stderrs=stderrs)


def g3_profile(series: ProcessedSeries, n_batches: int = 10) -> InterferencePattern:
    """Third-order correlation profile at arguments (x, 0, -x)."""
    return _scheme_profile(series, 3, "symmetric_opposite", n_batches)


def g4_profile(series: ProcessedSeries, n_batches: int = 10) -> InterferencePattern:
    """Fourth-order correlation profile at arguments (x, 0, -x, -2x)."""
    r, w = series.reference_column, series.width
    if not (w / 4 < r < 3 * w / 4):
        raise ReferenceOutOfRange(
            f"fourth-order profiles need the reference column strictly inside "
            f"[width/4, 3*width/4]; got {r} for width {w}")
    return _scheme_profile(series, 4, "four_point_double_speed", n_batches)


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
