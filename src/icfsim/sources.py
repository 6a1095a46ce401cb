"""Statistical models of the two classical sources.

Both sources share a single model: the same intensity statistics, the same
mean intensity, and an independently fluctuating relative phase theta.
Coherent light has constant intensity, so every normalized moment
g(k) = <I^k>/<I>^k equals 1.  Single-mode thermal light has exponentially
distributed intensity, giving g(k) = k!.  Custom models carry explicit
moments and are analytic-only: a distribution is underdetermined by four
moments, so they cannot be sampled.

An optional ``coherence_width`` w (in phase units) models the finite mutual
coherence of pseudo-thermal speckle: the interference term seen by a
detector at phase offset d is attenuated by exp(-d^2 / (2 w^2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CustomModelNotSamplable,
    MissingMoment,
    MomentInequalityViolated,
    NonpositiveMeanIntensity,
    NonpositiveWidth,
)

KINDS = ("coherent", "thermal", "custom")

_THERMAL_MOMENTS = {2: 2.0, 3: 6.0, 4: 24.0}
_COHERENT_MOMENTS = {2: 1.0, 3: 1.0, 4: 1.0}


@dataclass(frozen=True)
class SourceModel:
    """One classical source: kind, mean intensity, normalized moments.

    ``moments`` maps order k to g(k) = <I^k>/<I>^k.  It is auto-filled for
    coherent and thermal kinds and must be supplied for custom kinds.
    Models are validated on construction and immutable afterwards, so they
    are safe to share across threads.
    """

    kind: str
    mean_intensity: float = 1.0
    moments: dict[int, float] = field(default_factory=dict)
    coherence_width: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}; expected one of {KINDS}")
        if self.kind == "coherent":
            filled = dict(_COHERENT_MOMENTS)
        elif self.kind == "thermal":
            filled = dict(_THERMAL_MOMENTS)
        else:
            filled = {int(k): float(v) for k, v in self.moments.items()}
        object.__setattr__(self, "moments", filled)
        object.__setattr__(self, "mean_intensity", float(self.mean_intensity))
        validate(self)

    @classmethod
    def coherent(cls, mean_intensity: float = 1.0,
                 coherence_width: float | None = None) -> "SourceModel":
        return cls("coherent", mean_intensity, coherence_width=coherence_width)

    @classmethod
    def thermal(cls, mean_intensity: float = 1.0,
                coherence_width: float | None = None) -> "SourceModel":
        return cls("thermal", mean_intensity, coherence_width=coherence_width)

    @classmethod
    def custom(cls, moments: dict[int, float], mean_intensity: float = 1.0,
               coherence_width: float | None = None) -> "SourceModel":
        return cls("custom", mean_intensity, moments, coherence_width)

    @classmethod
    def from_dict(cls, cfg: dict) -> "SourceModel":
        """Build a model from a JSON-style config object.

        Expected keys: ``kind`` (required), ``mean_intensity``, ``moments``
        (order -> value, keys may be JSON strings), ``coherence_width``.
        """
        moments = {int(k): float(v) for k, v in (cfg.get("moments") or {}).items()}
        return cls(
            kind=cfg["kind"],
            mean_intensity=cfg.get("mean_intensity", 1.0),
            moments=moments,
            coherence_width=cfg.get("coherence_width"),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "mean_intensity": self.mean_intensity,
            "moments": {str(k): v for k, v in sorted(self.moments.items())},
            "coherence_width": self.coherence_width,
        }


@dataclass(frozen=True)
class Realization:
    """Instantaneous state of the source pair.

    ``theta`` is the fluctuating relative phase between the two sources;
    intensities are in the units of the model's mean intensity.
    """

    intensity_a: float
    intensity_b: float
    theta: float


def validate(model: SourceModel) -> None:
    """Check the classicality constraints; raise on the first violation.

    Constraints: mean intensity positive; coherence width (if any) positive;
    g(2) >= 1, and the Cauchy-Schwarz chain g(3) >= g(2)^2 and
    g(4) g(2) >= g(3)^2 for whichever moments the model provides.
    """
    if not model.mean_intensity > 0:
        raise NonpositiveMeanIntensity(
            f"mean_intensity must be positive, got {model.mean_intensity!r}")
    if model.coherence_width is not None and not model.coherence_width > 0:
        raise NonpositiveWidth(
            f"coherence_width must be positive, got {model.coherence_width!r}")
    m = model.moments
    g2, g3, g4 = m.get(2), m.get(3), m.get(4)
    for k, v in sorted(m.items()):
        if v <= 0:
            raise MomentInequalityViolated(k, v, 0.0,
                                           f"moment g({k}) must be positive, got {v!r}")
    if g2 is not None and g2 < 1.0:
        raise MomentInequalityViolated(2, g2, 1.0)
    if g3 is not None:
        if g2 is None:
            raise MissingMoment(2)
        if g3 < g2 * g2:
            raise MomentInequalityViolated(3, g3, g2 * g2)
    if g4 is not None:
        if g3 is None:
            raise MissingMoment(3)
        if g4 * g2 < g3 * g3:
            raise MomentInequalityViolated(4, g4 * g2, g3 * g3)


def moment(model: SourceModel, k: int) -> float:
    """Normalized intensity moment g(k) = <I^k>/<I>^k of one source.

    g(1) is 1 by normalization.  Coherent and thermal moments are derived
    analytically for any order (1 and k! respectively); custom models must
    carry the requested order explicitly.
    """
    if k < 1:
        raise ValueError(f"moment order must be >= 1, got {k}")
    if k == 1:
        return 1.0
    if model.kind == "coherent":
        return 1.0
    if model.kind == "thermal":
        return float(math.factorial(k))
    try:
        return model.moments[k]
    except KeyError:
        raise MissingMoment(k) from None


def coherence_envelope(model: SourceModel, delta) -> np.ndarray:
    """Interference attenuation factor exp(-d^2/(2 w^2)) per detector phase.

    Returns 1 for every detector when the model has infinite coherence
    (``coherence_width`` unset).
    """
    delta = np.asarray(delta)
    if model.coherence_width is None:
        return np.ones_like(delta, dtype=float)
    w = model.coherence_width
    if not w > 0:
        raise NonpositiveWidth(f"coherence_width must be positive, got {w!r}")
    return np.exp(-(delta ** 2) / (2.0 * w * w))


def sample(model: SourceModel, rng: np.random.Generator) -> Realization:
    """Draw one realization: intensities first, then the relative phase."""
    ia, ib, theta = sample_batch(model, rng, 1)
    return Realization(float(ia[0]), float(ib[0]), float(theta[0]))


def sample_batch(model: SourceModel, rng: np.random.Generator, size: int):
    """Vectorized sampling; returns (intensity_a, intensity_b, theta) arrays.

    Coherent intensities are exactly the mean; thermal intensities are
    i.i.d. exponential.  theta is uniform on [0, 2*pi).  The draw order
    (a-intensities, b-intensities, theta) is fixed so that a given seeded
    stream always yields bit-identical sequences.
    """
    if model.kind == "custom":
        raise CustomModelNotSamplable(
            "custom models carry moments only and cannot be sampled")
    if model.kind == "coherent":
        ia = np.full(size, model.mean_intensity)
        ib = np.full(size, model.mean_intensity)
    else:
        ia = rng.exponential(model.mean_intensity, size)
        ib = rng.exponential(model.mean_intensity, size)
    theta = rng.uniform(0.0, 2.0 * np.pi, size)
    return ia, ib, theta


def detector_rows(model: SourceModel, delta, ia, ib, theta):
    """Yield the instantaneous intensity at each detector in turn.

    I_j = Ia + Ib + 2 sqrt(Ia Ib) E_j cos(theta + delta_j), where E_j is the
    coherence-envelope factor.  It is evaluated as
    (Ia + Ib) + E_j cos(delta_j) c - E_j sin(delta_j) s with
    c = 2 sqrt(Ia Ib) cos(theta) and s = 2 sqrt(Ia Ib) sin(theta), so each
    sample costs two trig calls whatever the number of detectors.  ``ia``,
    ``ib`` and ``theta`` are arrays of one shape, which every row has.  All
    rows are written into one buffer: use a row before asking for the next.
    """
    delta = np.asarray(delta, dtype=float)
    env = coherence_envelope(model, delta)
    # Inputs are released as soon as they are used, so a caller that passes
    # temporaries gets their memory back before the rows are formed.
    base = ia + ib
    amp = ia * ib
    del ia, ib
    np.sqrt(amp, out=amp)
    amp *= 2.0
    c = np.cos(theta)
    c *= amp
    s = np.sin(theta)
    s *= amp
    del theta, amp
    row = np.empty_like(base)
    term = np.empty_like(base)
    for kc, ks in zip(env * np.cos(delta), env * np.sin(delta)):
        np.multiply(c, kc, out=row)
        row += base
        np.multiply(s, ks, out=term)
        row -= term
        yield row


def detector_intensities(model: SourceModel, delta, ia, ib, theta) -> np.ndarray:
    """Instantaneous intensities at detectors with phase offsets ``delta``.

    The rows of ``detector_rows`` stacked: shape (n_detectors, n_samples).
    """
    delta = np.asarray(delta, dtype=float)
    out = np.empty((len(delta),) + np.shape(theta))
    for j, row in enumerate(detector_rows(model, delta, ia, ib, theta)):
        out[j] = row
    return out
