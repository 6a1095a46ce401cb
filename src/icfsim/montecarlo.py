"""Monte Carlo estimation of normalized intensity correlations.

The estimator mirrors the experimental normalization convention: the value
is the sample mean of the detector-intensity product divided by the product
of the per-detector sample means (a ratio estimator over the same sample),
not the true means.  Standard errors come from batch means: the sample is
split into equal batches, the same ratio is formed per batch, and the
standard error is the batch standard deviation over sqrt(n_batches).
``ratio_of_means`` is that estimator; the frame pipeline's correlation
profiles use it too, with one frame per row.

Every batch owns a seeded substream, the one ``SeedSequence(seed).spawn``
gives it, whose state words ``sources.spawn_seeds`` builds for every batch
in one pass.  In a scan it serves every grid point: the draws are reduced
once to monomial sums that each point contracts with its own coefficients.
So a point's value and stderr do not depend on the rest of the grid, and
the errors of a scan's points are correlated.  A call's work is one list
of tasks, runs of consecutive batches sized from the batch size alone;
``run_tasks``, which renders frames too, runs them on one thread pool (or
inline) and merges them in order: results do not depend on workers.
Batches of fewer than ``2 * _TASK_SAMPLES`` samples run inline, as their
numpy calls are too short to overlap on two threads.  Each thread reuses
its work buffers from task to task within a call, so batches do not fault
in fresh memory; the buffers go when the call returns.  The scratch of the
trig kernel ``sources.cos_sin`` is carved from buffers that are idle while
it runs, so it adds next to no memory.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analytic import InterferencePattern, ScanPattern
from .errors import BadBatching
# detector_intensities is not called here; it stays importable from this
# module because perfbench's traced run wraps it under this name.
from .sources import (  # noqa: F401
    SourceModel,
    coherence_envelope,
    detector_intensities,
    detector_rows,
    field_terms,
    rng_from_seed,
    sample_batch,
    spawn_seeds,
    trig_scratch,
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


def _workspace(work, count: int, shape: tuple) -> tuple[list, list]:
    """``count`` arrays of ``shape``, and ``cos_sin`` scratch for one of
    them: views of all but the first four (which hold the draws and the
    amplitude, live during the trig step), and new arrays for what does not
    fit there.  Both are kept in ``work`` (a ``threading.local``, or None)
    for the calling thread's next task and made anew for another shape.
    Separate arrays, not one block, so that a scan's small arrays come from
    memory the allocator already holds.
    """
    if work is None:
        arrays = [np.empty(shape) for _ in range(count)]
        return arrays, trig_scratch(arrays[0].size, arrays[4:])
    key, arrays, scratch = getattr(work, "arrays", (None, None, None))
    if key != (count, shape):
        work.arrays = None  # the old arrays are freed before new ones are made
        arrays = [np.empty(shape) for _ in range(count)]
        scratch = trig_scratch(arrays[0].size, arrays[4:])
        work.arrays = ((count, shape), arrays, scratch)
    return arrays, scratch


def _draw(model: SourceModel, seeds: np.ndarray, ia, ib, theta):
    """Sample batch k into row k of (ia, ib, theta) from the ``spawn_seeds`` row ``seeds[k]``."""
    for k, words in enumerate(seeds):
        sample_batch(model, rng_from_seed(words), ia.shape[1],
                     out=(ia[k], ib[k], theta[k]))


def _task_sums(model: SourceModel, delta: np.ndarray, seeds: np.ndarray, size: int,
               work=None):
    """Per-batch sums of the detector-intensity products, shape (batches,),
    and of each detector's intensity, shape (batches, detectors), where batch
    k draws ``size`` samples from ``seeds[k]``.  Every reduction runs along a
    batch's own row, so it does not depend on the run of batches.
    """
    (ia, ib, theta, amp, row, prod), scratch = _workspace(work, 6, (len(seeds), size))
    _draw(model, seeds, ia, ib, theta)
    sums = np.empty((len(seeds), len(delta)))
    rows = detector_rows(model, delta, ia, ib, theta, amp, row, scratch)
    for j, row in enumerate(rows):
        sums[:, j] = row.sum(axis=-1)
        if j:
            prod *= row
        else:  # prod is trig scratch until now; 1.0 * row is row, bit for bit
            np.copyto(prod, row)
    if not len(delta):
        prod.fill(1.0)
    return prod.sum(axis=-1), sums


def _times(a, b, out):
    """a * b, written into ``out`` unless a factor is None, which stands for 1."""
    if a is None or b is None:
        return b if a is None else a
    return np.multiply(a, b, out=out)


def _power_sums(model: SourceModel, order: int, seeds: np.ndarray, size: int,
                work=None):
    """Per-batch sums, drawn as in ``_task_sums``, of the monomials
    base^(order-j-k) c^j s^k (j + k <= order, j major) in the terms of
    ``field_terms``, shape (batches, monomials), and of base, c and s.
    """
    (ia, ib, theta, term, c_pow, cs_pow, *higher), scratch = _workspace(
        work, order + 5, (len(seeds), size))
    _draw(model, seeds, ia, ib, theta)
    base, c, s = field_terms(ia, ib, theta, term, scratch)
    base_pow = [None, base]  # None: base^0
    for p in higher:
        base_pow.append(np.multiply(base_pow[-1], base, out=p))
    sums, cj = [], None  # cj holds c^j, and t below c^j s^k
    for j in range(order + 1):
        t = cj
        for k in range(order + 1 - j):
            sums.append(_times(t, base_pow[order - j - k], term).sum(axis=-1))
            if k < order - j:
                t = _times(t, s, cs_pow)
        if j < order:
            cj = _times(cj, c, c_pow)
    return np.stack(sums, axis=-1), np.stack([a.sum(axis=-1) for a in (base, c, s)], axis=-1)


def _scan_sums(model: SourceModel, deltas: np.ndarray, powers: np.ndarray,
               linear: np.ndarray):
    """Per-batch product and detector sums at phases ``deltas`` (points,
    detectors) from ``_power_sums``: detector j sees base + kc_j c - ks_j s.
    The contraction is elementwise and sequential, not a matrix product or
    a numpy sum (whose order depends on the shape), so a point's sums do not
    depend on the rest of the grid.
    """
    env = coherence_envelope(model, deltas)
    kc, ks = env * np.cos(deltas), env * np.sin(deltas)
    order = deltas.shape[1]
    # coef[p, j, k] multiplies base^(d-j-k) c^j s^k after d detectors
    coef = np.zeros((len(deltas), order + 1, order + 1))
    coef[:, 0, 0] = 1.0
    for d in range(order):
        prev = coef.copy()
        coef[:, 1:, :] += kc[:, d, None, None] * prev[:, :-1, :]
        coef[:, :, 1:] -= ks[:, d, None, None] * prev[:, :, :-1]
    coef = coef[:, np.add.outer(range(order + 1), range(order + 1)) <= order]
    prod = np.cumsum(powers[:, None, :] * coef, axis=-1)[..., -1]
    base, c, s = (linear[:, None, None, i] for i in range(3))
    return prod, base + kc * c - ks * s


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


def _batch_sums(task_sums, n_samples: int, n_batches: int, seed: int | None,
                workers: int) -> list[np.ndarray]:
    """Run ``task_sums(seeds, size, work)`` over ``spawn_seeds(seed, n_batches)``,
    the batches' state words, in runs of at most ``_TASK_SAMPLES // size``
    (at least one) batches, through ``run_tasks``, and join the per-batch
    rows it returns in batch order.
    """
    batch_size = _check_batching(n_samples, n_batches)
    seeds = spawn_seeds(seed, n_batches)
    per_task = max(1, _TASK_SAMPLES // batch_size)
    tasks = [seeds[k:k + per_task] for k in range(0, len(seeds), per_task)]
    # Below this size a task's numpy calls take a few microseconds each, too
    # short to overlap on two threads, so a second thread only adds waiting.
    if batch_size < 2 * _TASK_SAMPLES:
        workers = min(workers, 1)
    run = partial(task_sums, size=batch_size, work=threading.local())
    return [np.concatenate(parts) for parts in zip(*run_tasks(run, tasks, workers))]


def estimate_icf(model: SourceModel, delta, n_samples: int,
                 n_batches: int = 100, seed: int | None = None,
                 workers: int = 1) -> IcfEstimate:
    """Estimate the normalized correlation at one detector-phase tuple.

    ``workers`` is the most threads used; batches of fewer than
    ``2 * _TASK_SAMPLES`` samples run on one.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    prods, sums = _batch_sums(partial(_task_sums, model, delta), n_samples, n_batches,
                              seed, workers)
    value, stderr = ratio_of_means(prods, sums, n_samples // n_batches, n_batches)
    return IcfEstimate(float(value), float(stderr), n_samples, n_batches)


def estimate_scan(model: SourceModel, pattern: ScanPattern, n_samples: int,
                  n_batches: int = 100, seed: int | None = None,
                  workers: int = 1) -> InterferencePattern:
    """Estimate the correlation at every grid point of a scan pattern.

    Every point shares the draws of the batch seeds ``estimate_icf`` uses,
    so its value equals ``estimate_icf`` there to rounding, whatever the
    rest of the grid; the errors of different points are correlated.
    ``workers`` is the most threads used, as in ``estimate_icf``.
    """
    deltas = pattern.delta_array()
    powers, linear = _batch_sums(partial(_power_sums, model, deltas.shape[1]),
                                 n_samples, n_batches, seed, workers)
    values, stderrs = ratio_of_means(*_scan_sums(model, deltas, powers, linear),
                                     n_samples // n_batches, n_batches)
    return InterferencePattern(xs=pattern.grid, values=values, stderrs=stderrs)
