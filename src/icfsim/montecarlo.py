"""Monte Carlo estimation of normalized intensity correlations.

The estimator mirrors the experimental normalization convention: the value
is the sample mean of the detector-intensity product divided by the product
of the per-detector sample means (a ratio estimator over the same sample),
not the true means.  Each draw enters averaged over the reflections of its
relative phase, theta, -theta, pi + theta and pi - theta, which are as
likely as theta itself (antithetic variates): the average keeps the
monomials base^i c^j s^k of the product with j and k both even, and makes
every detector's intensity base = Ia + Ib, so each per-detector mean is the
mean of base.  Standard errors come from batch means: the sample is split
into equal batches, the same ratio is formed per batch, and the standard
error is the batch standard deviation over sqrt(n_batches).
``ratio_of_means`` is that estimator; the frame pipeline's correlation
profiles use it too, with one frame per row.

Every batch owns a seeded substream, the one ``SeedSequence(seed).spawn``
gives it, whose state words ``sources.spawn_seeds`` builds for every batch
in one pass.  One kernel, ``_even_sums``, reduces a batch's draws once to
the sums of the even monomials, which every point (a scan's grid points,
or ``estimate_icf``'s one) contracts with its own coefficients.  So a
point's value and stderr do not depend on the rest of the grid, and the
errors of a scan's points are correlated.  A call's work is one list of
tasks, runs of consecutive batches sized from the batch size alone;
``run_tasks``, which renders frames too, runs them on one thread pool (or
inline) and merges them in order: results do not depend on workers.
Batches of fewer than ``2 * _TASK_SAMPLES`` samples run inline, as their
numpy calls are too short to overlap on two threads.  Each thread reuses
its work buffers from task to task within a call, so batches do not fault
in fresh memory; the buffers go when the call returns.  A sample's c^2 and
s^2 come from one tangent of theta, in place in those buffers.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations_with_replacement

import numpy as np

from .analytic import InterferencePattern, ScanPattern
from .errors import BadBatching
from .sources import (
    SourceModel,
    coherence_envelope,
    rng_from_seed,
    sample_batch,
    spawn_seeds,
)

# Samples per pool task: large enough that numpy's per-call overhead is
# spread over many samples, small enough that a task's arrays stay around
# a megabyte.  Each thread reuses its task buffers within a call, so peak
# memory does not grow with the batch count.
_TASK_SAMPLES = 16_384


@dataclass(frozen=True)
class IcfEstimate:
    """An estimated correlation value with its batch-means standard error."""

    value: float
    stderr: float
    n_samples: int
    n_batches: int


def _workspace(work, count: int, shape: tuple) -> list:
    """``count`` arrays of ``shape``, kept in ``work`` (a ``threading.local``,
    or None) for the calling thread's next task and made anew for another
    shape.  Separate arrays, not one block, so that a scan's small arrays
    come from memory the allocator already holds.
    """
    if work is None:
        return [np.empty(shape) for _ in range(count)]
    key, arrays = getattr(work, "arrays", (None, None))
    if key != (count, shape):
        work.arrays = None  # the old arrays are freed before new ones are made
        arrays = [np.empty(shape) for _ in range(count)]
        work.arrays = ((count, shape), arrays)
    return arrays


def _detector_factors(model: SourceModel, deltas):
    """(kc, ks) = (E cos(delta), E sin(delta)), E the coherence envelope: with
    base = Ia + Ib, c = A cos(theta), s = A sin(theta) and A = 2 sqrt(Ia Ib),
    detector j at phase delta_j sees
    I_j = Ia + Ib + 2 sqrt(Ia Ib) E_j cos(theta + delta_j) = base + kc_j c - ks_j s."""
    env = coherence_envelope(model, deltas)
    return env * np.cos(deltas), env * np.sin(deltas)


def detector_intensities(model: SourceModel, delta, ia, ib, theta) -> np.ndarray:
    """Instantaneous intensities at detectors with phase offsets ``delta``,
    shape (detectors, samples), from the draws ``ia``, ``ib`` and ``theta``,
    which are left unchanged.
    """
    ia, ib, theta = (np.asarray(x, dtype=float) for x in (ia, ib, theta))
    amp = 2.0 * np.sqrt(ia * ib)
    kc, ks = _detector_factors(model, np.asarray(delta, dtype=float))
    return (ia + ib + np.multiply.outer(kc, amp * np.cos(theta))
            - np.multiply.outer(ks, amp * np.sin(theta)))


def _even_monomials(order: int) -> list:
    """The reflection-even monomials of a product of ``order`` detectors,
    base^(order % 2) B^i C^a S^b with i + a + b = order // 2, as tuples of
    indices into (B, C, S), in the order ``_even_sums`` sums them."""
    return list(combinations_with_replacement(range(3), order // 2))


def _even_sums(model: SourceModel, order: int, seeds: np.ndarray, size: int, work=None):
    """Per-batch sums of the ``_even_monomials(order)``, shape (batches,
    monomials), and of base, shape (batches,), where batch k draws ``size``
    samples from ``seeds[k]``.  In the terms of ``_detector_factors``,
    B = base^2, C = c^2 and S = s^2: with T = tan(theta) and A^2 = 4 Ia Ib,
    C = A^2/(1 + T^2) and S = C T^2.  Every reduction runs along a batch's
    own row, so it does not depend on the run of batches.
    """
    odd = order % 2
    ia, ib, theta, term, *extra = _workspace(work, 4 + odd, (len(seeds), size))
    for k, words in enumerate(seeds):
        sample_batch(model, rng_from_seed(words), size, out=(ia[k], ib[k], theta[k]))
    np.multiply(ia, ib, out=term)
    term *= 4.0  # A^2
    base = np.add(ia, ib, out=ia)
    t2 = np.square(np.tan(theta, out=theta), out=theta)
    c2 = np.divide(term, np.add(t2, 1.0, out=ib), out=ib)
    base_sums = base.sum(axis=-1)  # before an even order squares base in place
    squares = (np.square(base, out=extra[0] if odd else base), c2,
               np.multiply(c2, t2, out=theta))
    sums = []
    for monomial in _even_monomials(order):
        factors = [squares[i] for i in monomial] + [base] * odd  # products go into term
        prod = reduce(partial(np.multiply, out=term), factors) if factors else np.ones_like(term)
        sums.append(prod.sum(axis=-1))
    return np.stack(sums, axis=-1), base_sums


def _even_products(model: SourceModel, deltas: np.ndarray, sums: np.ndarray,
                   base_sums: np.ndarray):
    """Per-batch sums of the detector-intensity product at phases ``deltas``
    (points, detectors), averaged over the reflections of theta, shape
    (batches, points), from ``_even_sums``, each detector by
    ``_detector_factors``; and of each detector's intensity, shape (batches,
    points, detectors), which that average makes base.  The contraction is
    elementwise and sequential, not a matrix product or a numpy sum (whose
    order depends on the shape), so a point's sums do not depend on the rest
    of the grid.
    """
    kc, ks = _detector_factors(model, deltas)
    order = deltas.shape[1]
    # coef[p, j, k] multiplies base^(d-j-k) c^j s^k after d detectors
    coef = np.zeros((len(deltas), order + 1, order + 1))
    coef[:, 0, 0] = 1.0
    for d in range(order):
        prev = coef.copy()
        coef[:, 1:, :] += kc[:, d, None, None] * prev[:, :-1, :]
        coef[:, :, 1:] -= ks[:, d, None, None] * prev[:, :, :-1]
    # base^(order % 2) B^i C^a S^b is base^(order-2a-2b) c^2a s^2b
    coef = np.stack([coef[:, 2 * m.count(1), 2 * m.count(2)] for m in _even_monomials(order)],
                    axis=-1)
    prod = np.cumsum(sums[:, None, :] * coef, axis=-1)[..., -1]
    return prod, np.broadcast_to(base_sums[:, None, None], (*prod.shape, order))


def ratio_of_means(prod: np.ndarray, factors: np.ndarray, count: int, n_batches: int):
    """Ratio of pooled means, and its batch-means standard error.

    Row i of ``prod`` (rows, ...) sums a product over ``count`` draws, and
    row i of ``factors`` (rows, ..., k) its k factors over the same draws.
    The value pools every row.  The stderr is the standard deviation of the
    ratios of ``n_batches`` equal groups of leading rows over
    sqrt(n_batches), or None without two groups of two or more draws.  The
    groups are totalled, and their spread summed, in batch order, so neither
    depends on how the rows were computed or on the trailing axes' sizes.
    """
    def ratio(p, f, n):
        return (p / n) / np.prod(f / n, axis=-1)

    size = len(prod) // n_batches if n_batches >= 2 else 0
    if count * size < 2:
        return ratio(prod.sum(axis=0), factors.sum(axis=0), count * len(prod)), None
    cut = n_batches * size
    groups = [a[:cut].reshape(n_batches, size, *a.shape[1:]).sum(axis=1) for a in (prod, factors)]
    totals = [np.cumsum(g, axis=0)[-1] + a[cut:].sum(axis=0)
              for g, a in zip(groups, (prod, factors))]
    dev = ratio(*groups, count * size)
    dev -= np.cumsum(dev, axis=0)[-1] / n_batches
    return (ratio(*totals, count * len(prod)),
            np.sqrt(np.cumsum(dev * dev, axis=0)[-1] / (n_batches - 1)) / np.sqrt(n_batches))


def _check_batching(n_samples: int, n_batches: int) -> int:
    if n_batches < 10:
        raise BadBatching(f"need at least 10 batches for a standard error, got {n_batches}")
    # one sample makes a batch's ratio exactly 1, and its spread no error
    if n_samples // n_batches < 2:
        raise BadBatching(f"need at least two samples per batch, got "
                          f"n_samples = {n_samples} for n_batches = {n_batches}")
    if n_samples % n_batches != 0:
        raise BadBatching(
            f"n_samples = {n_samples} is not divisible by n_batches = {n_batches}")
    return n_samples // n_batches


def run_tasks(fn, tasks, workers: int) -> list:
    """``[fn(task) for task in tasks]`` on ``min(workers, len(tasks))``
    threads, or inline for one.  A task that raises cancels those not yet
    started; the running ones finish before the error propagates, so no
    thread outlives the call.  Monte Carlo batches and frames both run here.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, len(tasks))
    if workers < 2:
        return [fn(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def _estimate(model: SourceModel, deltas: np.ndarray, n_samples: int, n_batches: int,
              seed: int | None, workers: int):
    """Values and stderrs at phases ``deltas`` (points, detectors), every
    point from the same draws: ``_even_sums`` over ``spawn_seeds(seed,
    n_batches)``, the batches' state words, in runs of at most
    ``_TASK_SAMPLES // size`` (at least one) batches through ``run_tasks``,
    the per-batch rows joined in batch order."""
    batch_size = _check_batching(n_samples, n_batches)
    seeds = spawn_seeds(seed, n_batches)
    per_task = max(1, _TASK_SAMPLES // batch_size)
    tasks = [seeds[k:k + per_task] for k in range(0, len(seeds), per_task)]
    # Below this size a task's numpy calls take a few microseconds each, too
    # short to overlap on two threads, so a second thread only adds waiting.
    if batch_size < 2 * _TASK_SAMPLES:
        workers = min(workers, 1)
    run = partial(_even_sums, model, deltas.shape[1], size=batch_size, work=threading.local())
    sums = [np.concatenate(parts) for parts in zip(*run_tasks(run, tasks, workers))]
    return ratio_of_means(*_even_products(model, deltas, *sums), batch_size, n_batches)


def estimate_icf(model: SourceModel, delta, n_samples: int,
                 n_batches: int = 100, seed: int | None = None,
                 workers: int = 1) -> IcfEstimate:
    """Estimate the normalized correlation at one detector-phase tuple: a
    one-point ``estimate_scan``, equal to it there bit for bit.

    ``workers`` is the most threads used; batches of fewer than
    ``2 * _TASK_SAMPLES`` samples run on one.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    (value,), (stderr,) = _estimate(model, delta[None], n_samples, n_batches, seed, workers)
    return IcfEstimate(float(value), float(stderr), n_samples, n_batches)


def estimate_scan(model: SourceModel, pattern: ScanPattern, n_samples: int,
                  n_batches: int = 100, seed: int | None = None,
                  workers: int = 1) -> InterferencePattern:
    """Estimate the correlation at every grid point of a scan pattern.

    Every point shares the draws of the batch seeds ``estimate_icf`` uses,
    so its value and stderr equal ``estimate_icf``'s there bit for bit,
    whatever the rest of the grid; the errors of different points are
    correlated.  ``workers`` is the most threads used, as in ``estimate_icf``.
    """
    values, stderrs = _estimate(model, pattern.delta_array(), n_samples, n_batches, seed,
                                workers)
    return InterferencePattern(xs=pattern.grid, values=values, stderrs=stderrs)
