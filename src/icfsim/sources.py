"""Statistical models of the two classical sources.

Both sources share a single model: the same intensity statistics, the same
mean intensity, and an independently fluctuating relative phase theta.
Coherent light has constant intensity, so every normalized moment
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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .constants import DEFAULT_SEED
from .errors import (
    CustomModelNotSamplable,
    IcfSimError,
    MissingMoment,
    MomentInequalityViolated,
    NonpositiveMeanIntensity,
    NonpositiveWidth,
)

KINDS = ("coherent", "thermal", "custom")


@dataclass(frozen=True)
class SourceModel:
    """One classical source: kind, mean intensity, normalized moments.

    ``moments`` maps order k to g(k) = <I^k>/<I>^k, as given to a custom
    model; coherent and thermal models hold ``{}`` (``moment`` gives their
    g(k)).  Orders are integers >= 2 or their decimal strings, and values
    real, finite and positive.  Models are validated on construction and
    immutable afterwards, so they are safe to share across threads.
    """

    kind: str
    mean_intensity: float = 1.0
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
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 0 < v < math.inf:
                raise MomentInequalityViolated(
                    order, v, 0.0, f"moment g({order}) must be a positive finite number, got {v!r}")
            table[order] = float(v)
        object.__setattr__(self, "moments", table)
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
        """The model of a ``to_dict``-style object: ``kind`` (required),
        ``mean_intensity``, ``moments`` and ``coherence_width``, passed on
        as they are.  Any other key raises."""
        unknown = set(cfg) - {f.name for f in fields(cls)}
        if unknown:
            raise IcfSimError(f"unknown source model keys: {sorted(map(str, unknown))}")
        return cls(**cfg)

    def to_dict(self) -> dict:
        return asdict(self)


def validate(model: SourceModel) -> None:
    """Check the classicality constraints; raise on the first violation.

    Constraints: mean intensity positive and finite; coherence width (if
    any) positive; g(2) >= 1, and the Cauchy-Schwarz chain g(3) >= g(2)^2
    and g(4) g(2) >= g(3)^2 for whichever moments the model provides
    (``SourceModel`` checks that each is a positive finite number).
    """
    if not 0 < model.mean_intensity < math.inf:
        raise NonpositiveMeanIntensity(
            f"mean_intensity must be positive and finite, got {model.mean_intensity!r}")
    if model.coherence_width is not None and not model.coherence_width > 0:
        raise NonpositiveWidth(
            f"coherence_width must be positive, got {model.coherence_width!r}")
    g2, g3, g4 = (model.moments.get(k) for k in (2, 3, 4))
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


# cos_sin reduces theta to x = theta - k 2 pi/_NODES, |x| <= pi/_NODES, at
# the nearest table node k (Cody-Waite: k * _STEP_HI is exact for
# |k| < 2**29, and _STEP_LO carries the rest of 2 pi/_NODES, pi's own
# rounding included).  It works in chunks, on TRIG_SCRATCH scratch arrays
# of one chunk each that the caller owns.  Chunks of up to TRIG_CHUNK
# samples make each of its ~30 numpy calls long enough that two threads
# running the kernel overlap rather than wait on the interpreter lock.
TRIG_CHUNK = 20_000
TRIG_SCRATCH = 5
_NODES = 256
_PI_LO = 1.2246467991473532e-16  # pi - np.pi
_STEP_HI = float(np.float32(2.0 * np.pi / _NODES))
_STEP_LO = (2.0 * np.pi / _NODES - _STEP_HI) + 2.0 * _PI_LO / _NODES
_SHIFT = 1.5 * 2.0 ** 52  # y + _SHIFT keeps rint(y) in its low mantissa bits
# the kernel's constants as 0-d arrays, which numpy does not convert per call
_K = {name: np.array(value) for name, value in dict(
    to_node=_NODES / (2.0 * np.pi), shift=_SHIFT, step_hi=_STEP_HI, step_lo=_STEP_LO,
    sin5=1.0 / 120.0, sin3=1.0 / 6.0, cos6=-1.0 / 720.0, cos4=1.0 / 24.0, cos2=0.5,
    mask=np.int64(_NODES - 1)).items()}


def _node_tables():
    """cos and sin at the nodes k 2 pi/_NODES as (cos_hi, cos_lo, sin_hi,
    sin_lo): each value is hi + lo, to long-double precision where the
    platform has one.  The first octant is computed and mirrored, so the
    quadrant nodes are exact.
    """
    ld = np.longdouble
    a = np.arange(_NODES // 8 + 1, dtype=ld) * ((ld(np.pi) + ld(_PI_LO)) / (_NODES // 2))
    quarter = np.concatenate([np.cos(a), np.sin(a[-2::-1])])  # cos, node 0 to _NODES/4
    c, s = quarter[:-1], quarter[:0:-1]
    tables = []
    for t in (np.concatenate([c, -s, -c, s]), np.concatenate([s, c, -s, -c])):
        hi = t.astype(float)
        tables += [hi, (t - hi).astype(float)]
    return tables


_COS_HI, _COS_LO, _SIN_HI, _SIN_LO = _node_tables()


def trig_scratch(size: int, spare=()) -> list[np.ndarray]:
    """``cos_sin`` scratch for arrays of ``size`` elements: TRIG_SCRATCH
    arrays of min(size, TRIG_CHUNK) elements (at least one), as many as fit
    carved as views from the C-contiguous float arrays ``spare``, the rest
    new.  The caller keeps ``spare`` unused while ``cos_sin`` runs.
    """
    chunk = max(1, min(size, TRIG_CHUNK))
    views = [a.reshape(-1)[i:i + chunk] for a in spare
             for i in range(0, a.size - chunk + 1, chunk)][:TRIG_SCRATCH]
    return views + [np.empty(chunk) for _ in range(TRIG_SCRATCH - len(views))]


def cos_sin(theta, cos, sin, scratch):
    """Write cos(theta) into ``cos`` and sin(theta) into ``sin``.

    The arrays are C-contiguous and of one shape; ``sin`` may be ``theta``
    itself.  ``scratch`` is TRIG_SCRATCH 1-D float arrays of one length,
    the chunk (``trig_scratch`` makes them); they are overwritten, and the
    kernel allocates nothing.  With C and S the cos and sin at the node and
    x as above, cos theta = C + (C (cos x - 1) - S sin x) and sin theta =
    S + (S (cos x - 1) + C sin x), with Taylor polynomials to x^6 and x^5.
    For |theta| <= 1e4 the error against numpy's cos and sin is at most
    2**-52 (it is tested there; the reduction stays exact to |theta| of
    about 1e7), and a value depends neither on the array it sits in nor on
    the chunk.  The numpy calls take positional ``out`` arrays and 0-d
    constants, which shortens the interpreter-lock time between them that
    threads running this kernel share.
    """
    mul, add, sub, K = np.multiply, np.add, np.subtract, _K
    chunk = len(scratch[0])
    flat = [a.reshape(-1) for a in (theta, cos, sin)]
    for start in range(0, theta.size, chunk):
        t, co, si = (a[start:start + chunk] for a in flat)
        k, x, x2, c, s = scratch if len(t) == chunk else [a[:len(t)] for a in scratch]
        add(mul(t, K["to_node"], k), K["shift"], k)
        node = np.bitwise_and(k.view(np.int64), K["mask"], x2.view(np.int64))
        _COS_LO.take(node, out=co, mode="clip")
        _COS_HI.take(node, out=c, mode="clip")
        _SIN_HI.take(node, out=s, mode="clip")
        sub(k, K["shift"], k)
        sub(t, mul(k, K["step_hi"], x), x)
        sub(x, mul(k, K["step_lo"], k), x)
        _SIN_LO.take(node, out=si, mode="clip")  # t is not read again
        mul(x, x, x2)
        # k = sin x = x + (x2 (x2/120 - 1/6)) x
        add(mul(mul(sub(mul(x2, K["sin5"], k), K["sin3"], k), x2, k), x, k), x, k)
        # x = cos x - 1 = ((1/24 - x2/720) x2 - 1/2) x2
        mul(sub(mul(add(mul(x2, K["cos6"], x), K["cos4"], x), x2, x), K["cos2"], x), x2, x)
        add(co, mul(c, x, x2), co)
        sub(co, mul(s, k, x2), co)
        add(co, c, co)
        add(si, mul(s, x, x2), si)
        add(si, mul(c, k, x2), si)
        add(si, s, si)
    return cos, sin


def field_terms(ia, ib, theta, amp, scratch):
    """base = Ia + Ib, c = 2 sqrt(Ia Ib) cos(theta) and s = 2 sqrt(Ia Ib)
    sin(theta), written over ``ia``, ``ib`` and ``theta`` and returned in
    that order; ``amp`` is left holding 2 sqrt(Ia Ib).  cos and sin come
    from ``cos_sin`` (within 2**-52 of numpy's for |theta| <= 1e4), which
    overwrites the arrays ``scratch`` and nothing else.
    """
    np.sqrt(np.multiply(ia, ib, out=amp), out=amp)
    amp *= 2.0
    np.add(ia, ib, out=ia)
    cos_sin(theta, ib, theta, scratch)
    return ia, np.multiply(ib, amp, out=ib), np.multiply(theta, amp, out=theta)
