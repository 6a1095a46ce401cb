"""Statistical models of the two classical sources.

Both sources share a single model: the same intensity statistics, in units
of the mean intensity (which the normalized moments do not depend on), and
an independently fluctuating relative phase theta.  Coherent light has
constant intensity, so every normalized moment
g(k) = <I^k>/<I>^k equals 1.  Single-mode thermal light has exponentially
distributed intensity, giving g(k) = k! (``moment`` defines both).  Custom
models carry a moments table and are analytic-only: a distribution is
underdetermined by four moments, so they cannot be sampled.

An optional ``coherence_width`` w (in phase units) models the finite mutual
coherence of pseudo-thermal speckle: the interference term seen by a
detector at phase offset d is attenuated by exp(-d^2 / (2 w^2)).
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .constants import DEFAULT_SEED
from .errors import (
    CustomModelNotSamplable,
    IcfSimError,
    MissingMoment,
    MomentInequalityViolated,
    NonpositiveWidth,
)

KINDS = ("coherent", "thermal", "custom")


@dataclass(frozen=True)
class SourceModel:
    """One classical source: kind, normalized moments, coherence width.

    ``moments`` maps order k to g(k) = <I^k>/<I>^k, as given to a custom
    model; coherent and thermal models hold ``{}`` (``moment`` gives their
    g(k)).  Construction raises on the first failed check: orders are
    integers >= 2 or their decimal strings, values real, finite and positive;
    the coherence width (if any) positive; g(2) >= 1; a g(3) needs a g(2)
    and a g(4) a g(3); and the Cauchy-Schwarz chain g(3) >= g(2)^2 and
    g(4) g(2) >= g(3)^2 holds.  Models are immutable, so thread-safe.
    """

    kind: str
    moments: dict[int, float] = field(default_factory=dict)
    coherence_width: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown source kind {self.kind!r}; expected one of {KINDS}")
        if not isinstance(self.moments, dict):
            raise IcfSimError(f"'moments' must be a table of order: g(order), got {self.moments!r}")
        if self.moments and self.kind != "custom":
            raise IcfSimError(f"a 'moments' table is for custom models, not {self.kind}")
        table = {}
        for k, v in self.moments.items():
            order = int(k) if str(k).isdecimal() else 0  # not bools: str(True) is "True"
            if order < 2 or order in table:
                raise IcfSimError(f"'moments' orders must be distinct integers >= 2, got {k!r}")
            big = isinstance(v, int) and v > sys.float_info.max  # float(v) would overflow
            real = isinstance(v, numbers.Real) and not isinstance(v, bool)
            if big or not (real and 0 < v < math.inf):
                shown = "an integer beyond float range" if big else repr(v)
                raise MomentInequalityViolated(order, v, 0.0, f"moment g({order}) must be a "
                                               f"positive finite number, got {shown}")
            table[order] = float(v)
        object.__setattr__(self, "moments", table)
        w = self.coherence_width  # 2 w^2, the envelope's divisor, must not underflow to 0
        big = isinstance(w, int) and abs(w) > sys.float_info.max  # 2.0 * w would overflow
        if w is not None and (big or not (w > 0 and 2.0 * w * w > 0)):
            shown = "an integer beyond float range" if big else repr(w)
            raise NonpositiveWidth(f"coherence_width must be positive with 2 w^2 > 0, "
                                   f"got {shown}")
        g2, g3, g4 = (table.get(k) for k in (2, 3, 4))
        if g2 is not None and g2 < 1.0:
            raise MomentInequalityViolated(2, g2, 1.0)
        for k in (3, 4):
            if k in table and k - 1 not in table:
                raise MissingMoment(k - 1)
        if g3 is not None and g3 < g2 * g2:
            raise MomentInequalityViolated(3, g3, g2 * g2)
        if g4 is not None and g4 * g2 < g3 * g3:
            raise MomentInequalityViolated(4, g4 * g2, g3 * g3)

    @classmethod
    def coherent(cls, *, coherence_width: float | None = None) -> "SourceModel":
        return cls("coherent", coherence_width=coherence_width)

    @classmethod
    def thermal(cls, *, coherence_width: float | None = None) -> "SourceModel":
        return cls("thermal", coherence_width=coherence_width)

    @classmethod
    def custom(cls, moments: dict[int, float], *,
               coherence_width: float | None = None) -> "SourceModel":
        return cls("custom", moments, coherence_width)

    @classmethod
    def from_dict(cls, cfg: dict) -> "SourceModel":
        """The model of a ``to_dict``-style object: ``kind`` (required),
        ``moments`` and ``coherence_width``; any other key raises."""
        unknown = set(cfg) - {f.name for f in fields(cls)}
        if unknown:
            raise IcfSimError(f"unknown source model keys: {sorted(map(str, unknown))}")
        return cls(**cfg)

    def to_dict(self) -> dict:
        return asdict(self)


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
    with np.errstate(over="ignore"):  # a square past float range gives the limit, 0
        return np.exp(-(delta ** 2) / (2.0 * w * w))


# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF


def spawn_seeds(seed: int | None, n: int) -> np.ndarray:
    """Row k of this (n, 4) array is ``SeedSequence(seed).spawn(n)[k]
    .generate_state(4, np.uint64)``, for every k in one pass (``seed`` None
    means DEFAULT_SEED): the root's pool with the spawn key k mixed in, as
    SeedSequence mixes entropy beyond its pool, then hashed."""
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    # the root's mixing hashed 4 times per entropy word, at least 16 times
    words = -(-int(root.entropy).bit_length() // 32)
    hash_a = _INIT_A * pow(_MULT_A, 4 * max(4, words), 1 << 32) & _MASK
    key, pool, hash_b = np.arange(n, dtype=np.uint32), [], _INIT_B
    for word in root.pool.tolist():  # mix(word, hashmix(k))
        h = key ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK
        h *= np.uint32(hash_a)
        h ^= h >> 16
        mixed = np.uint32(_MIX_L * word & _MASK) - h * np.uint32(_MIX_R)
        pool.append(mixed ^ mixed >> 16)
    state = np.empty((n, 8), dtype=np.uint32)
    for i in range(8):  # generate_state: 8 uint32 words, read as 4 uint64
        x = pool[i % 4] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK
        x *= np.uint32(hash_b)
        np.bitwise_xor(x, x >> 16, out=state[:, i])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _state_words() -> type:
    """The seed-sequence type of ``rng_from_seed``: a ``spawn_seeds`` row,
    given as its child's ``generate_state(4, np.uint64)``.  It is made on
    first use, as importing numpy.random along with this module raised peak
    RSS by about 0.5 MB."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words):
            self.words = np.ascontiguousarray(words, dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype), self.words.shape) != (4, np.uint64, (4,)):
                raise ValueError(f"gives 4 uint64 words from a row of shape (4,), asked for "
                                 f"{n_words} {np.dtype(dtype)} from shape {self.words.shape}")
            return self.words

    return StateWords


def rng_from_seed(words) -> np.random.Generator:
    """``np.random.default_rng(child)`` for the child whose ``spawn_seeds`` row is ``words``."""
    return np.random.Generator(np.random.PCG64(_state_words()(words)))


def sample_batch(model: SourceModel, rng: np.random.Generator, size: int, out=None):
    """Vectorized sampling; returns (intensity_a, intensity_b, theta) arrays.

    Coherent intensities are exactly the mean, 1; thermal intensities are
    i.i.d. standard exponential.  theta is uniform on [0, 2*pi).  The draw order
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
            i.fill(1.0)
        else:
            rng.standard_exponential(out=i)
    rng.random(out=theta)  # uniform(0, 2 pi) is 0 + 2 pi * random()
    theta *= 2.0 * np.pi
    return ia, ib, theta
