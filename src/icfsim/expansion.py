"""First-principles oracle for the n-detector correlation of two sources.

Each detector j sees the instantaneous intensity

    I_j = Ia + Ib + 2 sqrt(Ia Ib) cos(theta + delta_j),

the interference of two fields with equal mean intensity, independent
intensity fluctuations, and a common fluctuating relative phase theta.
Writing the cosine as half a sum of two complex exponentials, the product
I_1 ... I_n expands into exactly 4^n terms, each assigning one token out of
{A, B, +, -} to every detector.  Averaging over uniform theta kills every
assignment whose + and - counts differ; a surviving assignment with a
detectors on A, b on B and m on each of +/- contributes

    g(a + m) g(b + m) exp(i [sum_plus delta_j - sum_minus delta_j]) / 2^n

to the normalized correlation, where g(k) is the k-th normalized intensity
moment of one source (the mean intensity cancels).  The imaginary parts
cancel in conjugate pairs.  The oracle visits all 4^n assignments, decoding
each index below 4^n into base-4 tokens, then sums the surviving terms by
sign row, as terms with one sign row share their phase and envelope factor.
A sign row's moment weight depends on the model alone, and ``icf_general``
keeps it in a bounded memo keyed by g(0..n).  Its phase factor is
E[P] conj(E[M]), where E[S] = exp(i sum_{j in S} delta_j) and P and M are
the row's + and - detectors: one exponential per detector subset, 2^n of
them.  While 2 * 2^n exceeds the number of sign rows (n <= 5), the oracle
instead takes one exponential per sign row.
This evaluator is exhaustive and independent of the closed forms in
:mod:`icfsim.analytic`, which it certifies.  Certification runs its random
trials in vectorized chunks, with the draws of one trial at a time and the
same per-trial sums as ``icf_general``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .analytic import closed_form
# Not called here; perfbench's tracer wraps the closed forms under these names.
from .analytic import g2_point, g3_point, g4_point  # noqa: F401
from .constants import DEFAULT_SEED, ORDERS
from .errors import BadTrialCount, OrderTooLarge, UnsupportedOrder
from .sources import SourceModel, coherence_envelope, moment

# 4^n assignments; n = 8 is 65536, still instant, and nobody needs more.
MAX_ORDER = 8

_A, _B, _PLUS, _MINUS = range(4)


@lru_cache(maxsize=None)
def _table(n: int):
    """Term table ``(k_a, k_b, signs)``: moment orders and int8 sign rows,
    ``signs[t, j]`` being +1/-1/0 for a +/-/bare token at detector j of term t.

    All 4^n assignments are decoded once and the theta-balanced ones kept.
    Row i holds the base-4 digits of i, most significant first, so rows come
    in ``itertools.product((A, B, +, -), repeat=n)`` order.
    """
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(n, MAX_ORDER)
    index = np.arange(4 ** n, dtype=np.int32)
    tokens = (index[:, None] >> (2 * np.arange(n - 1, -1, -1, dtype=np.int32))) & 3
    signs = (tokens == _PLUS).astype(np.int8) - (tokens == _MINUS)
    keep = signs.sum(axis=1) == 0
    # k_a counts A and + tokens; k_b = n - k_a counts B and - tokens
    k_a = np.count_nonzero((tokens[keep] == _A) | (tokens[keep] == _PLUS), axis=1)
    return k_a, n - k_a, signs[keep]


@lru_cache(maxsize=None)
def _grouped(n: int):
    """The term table folded by sign row, with its phase basis.

    Returns ``(rows, counts, active, basis, plus, minus)``: the unique sign
    rows, a ``(rows, n + 1)`` matrix counting each row's terms by ``k_a``,
    the mask of detectors a row's phase involves, and the basis: with one
    exponential E per basis row, sign row t's factor is E[plus[t]]
    conj(E[minus[t]]).  The basis is the sign rows (``plus`` and ``minus``
    None) while 2 * 2^n exceeds their number, else the 2^n detector
    subsets, bit j of s marking detector j in row s.
    """
    k_a, _, signs = _table(n)
    rows, row_of = np.unique(signs, axis=0, return_inverse=True)
    counts = np.zeros((len(rows), n + 1))
    np.add.at(counts, (row_of.ravel(), k_a), 1.0)
    rows = rows.astype(float)
    if 2 * 2 ** n > len(rows):
        return rows, counts, rows != 0, rows, None, None
    bits = 1 << np.arange(n)
    basis = ((np.arange(2 ** n)[:, None] & bits) != 0).astype(float)
    return rows, counts, rows != 0, basis, (rows > 0) @ bits, (rows < 0) @ bits


def term_count(n: int) -> int:
    """Number of assignments that survive the theta average."""
    return len(_table(n)[2])


def _weights(g: np.ndarray) -> np.ndarray:
    """Each sign row's moment weight, the sum of g(k_a) g(n - k_a) over its
    terms; ``g`` holds g(0..n), shape (n + 1,) or (trials, n + 1)."""
    counts = _grouped(g.shape[-1] - 1)[1]
    return (counts @ (g * g[..., ::-1])[..., None])[..., 0]


@lru_cache(maxsize=256)
def _model_weights(g: tuple) -> np.ndarray:
    """``_weights`` of one model's g(0..n), which also fixes n; read-only."""
    w = _weights(np.array(g))
    w.flags.writeable = False
    return w


def _sums(w: np.ndarray, delta: np.ndarray, env=None):
    """Unnormalized complex expansion sums; imaginary parts must cancel.

    ``delta`` holds the detector phases, shape (n,) or (trials, n), ``w``
    each trial's sign-row moment weights (``_weights``), and ``env`` None or
    the envelope factors, shaped like ``delta``.  Each trial runs the same
    matrix-vector products, gathers and contiguous sum as a single call, so
    a batched value equals the one-trial value bit for bit.
    """
    _, _, active, basis, plus, minus = _grouped(delta.shape[-1])
    if env is not None:
        w = w * np.prod(np.where(active, env[..., None, :], 1.0), axis=-1)
    terms = 1j * (basis @ delta[..., None])[..., 0]
    np.exp(terms, out=terms)
    if plus is not None:
        # take, not terms[..., plus], keeps a batch C-contiguous and so its
        # sums bit-identical to single calls
        terms = terms.take(plus, -1) * terms.conj().take(minus, -1)
    terms *= w
    return np.add.reduce(terms, -1)


def _residue_error(residue: float, n: int) -> ArithmeticError:
    return ArithmeticError(f"imaginary residue {residue:g} did not cancel for order {n}")


def icf_general(model: SourceModel, delta) -> float:
    """Normalized n-detector correlation <prod I_j> / prod <I_j>.

    ``delta`` is the per-detector phase-offset list: a 1-D sequence of
    phases whose absolute sum, which bounds every phase sum the expansion
    forms, is finite; n = len(delta) from 1 up to 8.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.ndim == 0:
        delta = delta.reshape(1)
    if delta.ndim != 1 or delta.size == 0 or not math.isfinite(sum(map(abs, delta.tolist()))):
        raise ValueError(f"delta must be a non-empty 1-D list of finite phases with a "
                         f"finite absolute sum, got {delta.tolist()}")
    n = delta.size
    _grouped(n)  # OrderTooLarge before any missing moment
    g = (1.0, 1.0, *(moment(model, k) for k in range(2, n + 1)))
    env = None if model.coherence_width is None else coherence_envelope(model, delta)
    total = complex(_sums(_model_weights(g), delta, env))
    scale = 2.0 ** -n
    value = total.real * scale
    residue = abs(total.imag) * scale
    if not residue <= 1e-12 * max(1.0, abs(value)):
        raise _residue_error(residue, n)
    return value


# Trials per vectorized step of verify_closed_form, which bounds its memory.
_CHUNK = 4096


def _draw(rng: np.random.Generator, order: int, size: int):
    """Moments g(2), g(3), g(4) and phases for ``size`` trials, drawn in the
    order of one-at-a-time ``rng.uniform`` calls: three moment factors, then
    the phases, per trial."""
    u = rng.random((size, 3 + order))
    g2 = 1.0 + 3.0 * u[:, 0]
    g3 = g2 * g2 * (1.0 + 1.5 * u[:, 1])
    g4 = (g3 * g3 / g2) * (1.0 + 1.5 * u[:, 2])
    return g2, g3, g4, 2.0 * np.pi * u[:, 3:]


def verify_closed_form(order: int, trials: int, seed: int | None = None) -> float:
    """Max |expansion - closed form| over random valid moments and phases.

    Each trial draws moments satisfying the classicality inequalities
    (g2 >= 1, g3 >= g2^2, g4 g2 >= g3^2) and a uniform phase tuple, then
    compares this module's exhaustive evaluation against the closed form of
    the same order.  Agreement below 1e-10 certifies the closed form.
    Trials run in vectorized chunks that draw the same numbers, in the same
    order, as one trial at a time.
    """
    if order not in ORDERS:
        raise UnsupportedOrder(order)
    if trials < 1:
        raise BadTrialCount(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    worst = 0.0
    for start in range(0, trials, _CHUNK):
        g2, g3, g4, delta = _draw(rng, order, min(_CHUNK, trials - start))
        violated = (g2 < 1.0) | (g3 < g2 * g2) | (g4 * g2 < g3 * g3)
        if violated.any():
            i = int(np.argmax(violated))
            SourceModel.custom({2: g2[i], 3: g3[i], 4: g4[i]})  # raises the model's error
        ones = np.ones_like(g2)
        total = _sums(_weights(np.stack((ones, ones, g2, g3, g4), axis=-1)[:, :order + 1]), delta)
        value = total.real * 2.0 ** -order
        residue = np.abs(total.imag) * 2.0 ** -order
        bad = ~(residue <= 1e-12 * np.maximum(1.0, np.abs(value)))
        if bad.any():
            raise _residue_error(float(residue[bad][0]), order)
        closed = closed_form((g2, g3, g4), delta)
        worst = max(worst, float(np.max(np.abs(value - closed))))
    return worst
