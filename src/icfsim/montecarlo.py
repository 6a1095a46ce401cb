"""Monte Carlo estimation of normalized intensity correlations.

The estimator mirrors the experimental normalization convention: the value
is the sample mean of the detector-intensity product divided by the product
of the per-detector sample means (a ratio estimator over the same sample),
not the true means.  Standard errors come from batch means: the sample is
split into equal batches, the same ratio is formed per batch, and the
standard error is the batch standard deviation over sqrt(n_batches).

Every (grid point, batch) pair owns a seeded substream spawned
deterministically from the run seed.  The work of a call is one ordered
list of tasks; a task is a run of consecutive batches of one grid point,
sized from the batch size alone.  All tasks of a call go to one thread pool
(or run inline for a single worker), and each point's per-batch sums are
merged in fixed batch order, so results are bit-identical regardless of
how many workers share the tasks.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytic import InterferencePattern, ScanPattern
from .constants import DEFAULT_SEED
from .errors import BadBatching
# detector_intensities is not called here; it stays importable from this
# module because perfbench's traced run wraps it under this name.
from .sources import (  # noqa: F401
    SourceModel,
    detector_intensities,
    detector_rows,
    sample_batch,
)

# Samples per pool task: large enough that numpy's per-call overhead is
# spread over many samples, small enough that a task's arrays stay around
# a megabyte, so peak memory does not grow with the batch count.
_TASK_SAMPLES = 16_384


@dataclass(frozen=True)
class IcfEstimate:
    """An estimated correlation value with its batch-means standard error."""

    value: float
    stderr: float
    n_samples: int
    n_batches: int


def _draw(model: SourceModel, seeds: list[np.random.SeedSequence], size: int,
          lock):
    """Samples for consecutive batches, one row per batch: (ia, ib, theta)."""
    ia = np.empty((len(seeds), size))
    ib = np.empty_like(ia)
    theta = np.empty_like(ia)
    with lock:
        for k, seed in enumerate(seeds):
            ia[k], ib[k], theta[k] = sample_batch(model, np.random.default_rng(seed), size)
    return ia, ib, theta


def _task_sums(model: SourceModel, delta: np.ndarray,
               seeds: list[np.random.SeedSequence], size: int,
               lock=contextlib.nullcontext()):
    """Per-batch sums for a run of consecutive batches of one point.

    Batch k draws ``size`` samples from ``seeds[k]``.  Returns the sums of
    the detector-intensity products, shape (batches,), and the per-detector
    intensity sums, shape (batches, detectors).  Every reduction runs along
    a batch's own row, so a batch's sums do not depend on which run of
    batches it was computed in.
    """
    prod = np.ones((len(seeds), size))
    sums = np.empty((len(seeds), len(delta)))
    # the samples are passed on unnamed, so detector_rows can free them
    for j, row in enumerate(detector_rows(model, delta, *_draw(model, seeds, size, lock))):
        sums[:, j] = row.sum(axis=-1)
        prod *= row
    return prod.sum(axis=-1), sums


def _ratio(sum_prod, sums: np.ndarray, count: int):
    """Mean product over the product of means; vectorized over leading axes."""
    return (sum_prod / count) / np.prod(sums / count, axis=-1)


def _check_batching(n_samples: int, n_batches: int) -> int:
    if n_batches < 10:
        raise BadBatching(f"need at least 10 batches for a standard error, got {n_batches}")
    if n_samples // n_batches < 1:
        raise BadBatching(
            f"need at least one sample per batch, got n_samples = {n_samples} "
            f"for n_batches = {n_batches}")
    if n_samples % n_batches != 0:
        raise BadBatching(
            f"n_samples = {n_samples} is not divisible by n_batches = {n_batches}")
    return n_samples // n_batches


def _merge(prods: np.ndarray, sums: np.ndarray, batch_size: int) -> IcfEstimate:
    """Ratio-of-means estimate and batch-means stderr from per-batch sums."""
    # sequential merge in batch order keeps the value worker-count independent
    total_prod = 0.0
    total_sums = np.zeros(sums.shape[1])
    for sum_prod, batch in zip(prods, sums):
        total_prod += sum_prod
        total_sums += batch
    n_batches = len(prods)
    n = batch_size * n_batches
    ratios = _ratio(prods, sums, batch_size)
    return IcfEstimate(value=float(_ratio(total_prod, total_sums, n)),
                       stderr=float(ratios.std(ddof=1) / np.sqrt(n_batches)),
                       n_samples=n, n_batches=n_batches)


def _estimate_points(model, deltas, point_seeds, batch_size, workers):
    """One estimate per (delta, batch seeds) point, from one task list.

    A task is a run of at most ``_TASK_SAMPLES // batch_size`` (but at least
    one) consecutive batches of one point; the split depends on the batch
    size only, never on ``workers``.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    per_task = max(1, _TASK_SAMPLES // batch_size)
    tasks = [(delta, seeds[k:k + per_task])
             for delta, seeds in zip(deltas, point_seeds)
             for k in range(0, len(seeds), per_task)]

    # Sampling holds the interpreter lock for most of its time and releases
    # it for many short draws, so two threads sampling at once mostly wait
    # for each other; one samples while the others form detector rows.
    sampling = threading.Lock()

    def run(task):
        delta, seeds = task
        return _task_sums(model, delta, seeds, batch_size, sampling)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks))
    else:
        results = [run(task) for task in tasks]
    ordered = iter(results)
    estimates = []
    for seeds in point_seeds:
        chunk = [next(ordered) for _ in range(0, len(seeds), per_task)]
        estimates.append(_merge(np.concatenate([p for p, _ in chunk]),
                                np.concatenate([s for _, s in chunk]), batch_size))
    return estimates


def estimate_icf(model: SourceModel, delta, n_samples: int,
                 n_batches: int = 100, seed: int | None = None,
                 workers: int = 1) -> IcfEstimate:
    """Estimate the normalized correlation at one detector-phase tuple."""
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    batch_size = _check_batching(n_samples, n_batches)
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    return _estimate_points(model, [delta], [root.spawn(n_batches)],
                            batch_size, workers)[0]


def estimate_scan(model: SourceModel, pattern: ScanPattern, n_samples: int,
                  n_batches: int = 100, seed: int | None = None,
                  workers: int = 1) -> InterferencePattern:
    """Estimate the correlation at every grid point of a scan pattern.

    Each grid point gets its own spawned substream (index-keyed, so the
    estimate at a point does not depend on the rest of the grid).
    """
    batch_size = _check_batching(n_samples, n_batches)
    deltas = pattern.delta_array()
    root = np.random.SeedSequence(DEFAULT_SEED if seed is None else seed)
    estimates = _estimate_points(
        model, deltas, [ps.spawn(n_batches) for ps in root.spawn(len(deltas))],
        batch_size, workers)
    return InterferencePattern(xs=pattern.grid,
                               values=np.array([e.value for e in estimates]),
                               stderrs=np.array([e.stderr for e in estimates]))
