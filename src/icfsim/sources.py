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
        if self.kind == "custom":
            filled = {int(k): float(v) for k, v in self.moments.items()}
        else:
            filled = {k: moment(self, k) for k in (2, 3, 4)}
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


def sample_batch(model: SourceModel, rng: np.random.Generator, size: int, out=None):
    """Vectorized sampling; returns (intensity_a, intensity_b, theta) arrays.

    Coherent intensities are exactly the mean; thermal intensities are
    i.i.d. exponential.  theta is uniform on [0, 2*pi).  The draw order
    (a-intensities, b-intensities, theta) is fixed so that a given seeded
    stream always yields bit-identical sequences.  With ``out``, three
    contiguous float arrays of length ``size``, the draws are written there
    and are the same bits as without it.
    """
    if model.kind == "custom":
        raise CustomModelNotSamplable(
            "custom models carry moments only and cannot be sampled")
    ia, ib, theta = (np.empty(size) for _ in range(3)) if out is None else out
    for i in (ia, ib):
        if model.kind == "coherent":
            i.fill(model.mean_intensity)
        else:  # numpy's exponential(scale) is scale * standard_exponential()
            rng.standard_exponential(out=i)
            i *= model.mean_intensity
    rng.random(out=theta)  # uniform(0, 2 pi) is 0 + 2 pi * random()
    theta *= 2.0 * np.pi
    return ia, ib, theta


def field_terms(ia, ib, theta, amp):
    """base = Ia + Ib, c = 2 sqrt(Ia Ib) cos(theta) and s = 2 sqrt(Ia Ib)
    sin(theta), written over ``ia``, ``ib`` and ``theta`` and returned in
    that order; ``amp`` is left holding 2 sqrt(Ia Ib).
    """
    np.sqrt(np.multiply(ia, ib, out=amp), out=amp)
    amp *= 2.0
    return (np.add(ia, ib, out=ia), np.multiply(np.cos(theta, out=ib), amp, out=ib),
            np.multiply(np.sin(theta, out=theta), amp, out=theta))


def detector_rows(model: SourceModel, delta, ia, ib, theta, amp, row):
    """Yield the instantaneous intensity at each detector in turn.

    I_j = Ia + Ib + 2 sqrt(Ia Ib) E_j cos(theta + delta_j), where E_j is the
    coherence-envelope factor.  It is evaluated as
    (Ia + Ib) + E_j cos(delta_j) c - E_j sin(delta_j) s with the
    ``field_terms`` c and s, so each sample costs two trig calls whatever
    the number of detectors.  The draws ``ia``, ``ib`` and ``theta`` and
    the scratch arrays ``amp`` and ``row`` all have one shape; the draws
    and ``amp`` are overwritten, and every row is written into ``row``:
    use a row before asking for the next.
    """
    delta = np.asarray(delta, dtype=float)
    env = coherence_envelope(model, delta)
    base, c, s = field_terms(ia, ib, theta, amp)
    for kc, ks in zip(env * np.cos(delta), env * np.sin(delta)):
        np.multiply(c, kc, out=row)
        row += base
        np.multiply(s, ks, out=amp)
        row -= amp
        yield row


def detector_intensities(model: SourceModel, delta, ia, ib, theta) -> np.ndarray:
    """Instantaneous intensities at detectors with phase offsets ``delta``.

    The rows of ``detector_rows`` stacked: shape (n_detectors, n_samples).
    """
    delta = np.asarray(delta, dtype=float)
    # copies of the draws, and scratch for amp and row: the inputs stay unchanged
    work = np.array([ia, ib, theta, theta, theta], dtype=float)
    out = np.empty((len(delta),) + work.shape[1:])
    for j, row in enumerate(detector_rows(model, delta, *work)):
        out[j] = row
    return out
