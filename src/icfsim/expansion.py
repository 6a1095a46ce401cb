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
This evaluator is exhaustive and independent of the closed forms in
:mod:`icfsim.analytic`, which it certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import PhaseConfig, g2_point, g3_point, g4_point
from .constants import DEFAULT_SEED
from .errors import BadTrialCount, OrderTooLarge, UnsupportedOrder
from .sources import SourceModel, coherence_envelope, moment

# 4^n assignments; n = 8 is 65536, still instant, and nobody needs more.
MAX_ORDER = 8

_A, _B, _PLUS, _MINUS = range(4)


@dataclass(frozen=True)
class ExpansionTerm:
    """One theta-surviving token assignment.

    ``a_count``/``b_count`` detectors take the bare source intensities;
    ``plus_set``/``minus_set`` are the (equal-size) detector index sets
    carrying e^{+i(theta+delta)} and e^{-i(theta+delta)} tokens.  ``weight``
    is the term's multiplicative factor in the normalized sum, 2^-n.
    """

    a_count: int
    b_count: int
    plus_set: frozenset
    minus_set: frozenset
    weight: float


@lru_cache(maxsize=None)
def _expand(n: int):
    """Decode all 4^n token assignments once; keep the theta-balanced ones.

    Row i holds the base-4 digits of i, most significant first, so rows come
    in ``itertools.product((A, B, +, -), repeat=n)`` order.  Returns the term
    table (see ``_table``) and the number of rows decoded.
    """
    if not 1 <= n <= MAX_ORDER:
        raise OrderTooLarge(n, MAX_ORDER)
    index = np.arange(4 ** n, dtype=np.int32)
    tokens = (index[:, None] >> (2 * np.arange(n - 1, -1, -1, dtype=np.int32))) & 3
    signs = (tokens == _PLUS).astype(np.int8) - (tokens == _MINUS)
    keep = signs.sum(axis=1) == 0
    # k_a counts A and + tokens; k_b = n - k_a counts B and - tokens
    k_a = np.count_nonzero((tokens[keep] == _A) | (tokens[keep] == _PLUS), axis=1)
    return (k_a, n - k_a, signs[keep]), len(index)


def _table(n: int):
    """Term table ``(k_a, k_b, signs)``: moment orders and int8 sign rows,
    ``signs[t, j]`` being +1/-1/0 for a +/-/bare token at detector j of term t.
    """
    return _expand(n)[0]


@lru_cache(maxsize=None)
def _grouped(n: int):
    """The term table folded by sign row.

    Returns the unique sign rows, a ``(rows, n + 1)`` matrix counting each
    row's terms by ``k_a``, and the mask of detectors a row's phase involves.
    """
    k_a, _, signs = _table(n)
    rows, row_of = np.unique(signs, axis=0, return_inverse=True)
    counts = np.zeros((len(rows), n + 1))
    np.add.at(counts, (row_of.ravel(), k_a), 1.0)
    return rows.astype(float), counts, rows != 0


def expansion_terms(n: int) -> list[ExpansionTerm]:
    """All theta-surviving assignments for order n, in enumeration order."""
    k_a, k_b, signs = _table(n)
    m = np.count_nonzero(signs == 1, axis=1)
    return [ExpansionTerm(a, b, frozenset(np.flatnonzero(row == 1).tolist()),
                          frozenset(np.flatnonzero(row == -1).tolist()), 2.0 ** -n)
            for a, b, row in zip((k_a - m).tolist(), (k_b - m).tolist(), signs)]


def assignments_enumerated(n: int) -> int:
    """Raw assignments actually decoded by the expansion (4^n of them)."""
    return _expand(n)[1]


def term_count(n: int) -> int:
    """Number of assignments that survive the theta average."""
    return len(_table(n)[2])


def _icf_sum(model: SourceModel, delta: np.ndarray) -> complex:
    """Unnormalized complex expansion sum; imaginary part must cancel."""
    n = delta.size
    rows, counts, active = _grouped(n)
    g = np.array([moment(model, k) if k >= 1 else 1.0 for k in range(n + 1)])
    # a term's weight is g(k_a) g(n - k_a)
    w = counts @ (g * g[::-1])
    if model.coherence_width is not None:
        env = coherence_envelope(model, delta)
        w = w * np.prod(np.where(active, env, 1.0), axis=1)
    return complex(np.sum(w * np.exp(1j * (rows @ delta))))


def icf_general(model: SourceModel, delta) -> float:
    """Normalized n-detector correlation <prod I_j> / prod <I_j>.

    ``delta`` is the per-detector phase-offset list: a 1-D sequence of
    finite phases, n = len(delta) from 1 up to 8.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.ndim != 1 or delta.size == 0 or not np.isfinite(delta).all():
        raise ValueError(f"delta must be a non-empty 1-D list of finite phases, "
                         f"got {delta.tolist()}")
    n = delta.size
    total = _icf_sum(model, delta)  # OrderTooLarge beyond MAX_ORDER
    scale = 2.0 ** -n
    value = total.real * scale
    residue = abs(total.imag) * scale
    if residue > 1e-12 * max(1.0, abs(value)):
        raise ArithmeticError(
            f"imaginary residue {residue:g} did not cancel for order {n}")
    return value


def verify_closed_form(order: int, trials: int, seed: int | None = None) -> float:
    """Max |expansion - closed form| over random valid moments and phases.

    Each trial draws moments satisfying the classicality inequalities
    (g2 >= 1, g3 >= g2^2, g4 g2 >= g3^2) and a uniform phase tuple, then
    compares this module's exhaustive evaluation against the closed form of
    the same order.  Agreement below 1e-10 certifies the closed form.
    """
    if order not in (2, 3, 4):
        raise UnsupportedOrder(order)
    if trials < 1:
        raise BadTrialCount(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(DEFAULT_SEED if seed is None else seed)
    worst = 0.0
    for _ in range(trials):
        g2 = rng.uniform(1.0, 4.0)
        g3 = g2 * g2 * rng.uniform(1.0, 2.5)
        g4 = (g3 * g3 / g2) * rng.uniform(1.0, 2.5)
        model = SourceModel.custom({2: g2, 3: g3, 4: g4})
        delta = rng.uniform(0.0, 2.0 * np.pi, order)
        if order == 2:
            closed = g2_point(model, delta[0] - delta[1])
        elif order == 3:
            closed = g3_point(model, PhaseConfig(tuple(delta)))
        else:
            closed = g4_point(model, PhaseConfig(tuple(delta)))
        worst = max(worst, abs(icf_general(model, delta) - closed))
    return worst
