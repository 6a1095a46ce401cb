"""Monte Carlo estimation of normalized intensity correlations.

The estimator mirrors the experimental normalization convention: the value
is the sample mean of the detector-intensity product divided by the product
of the per-detector sample means (a ratio estimator over the same sample),
not the true means.  Standard errors come from batch means: the sample is
split into equal batches, the same ratio is formed per batch, and the
standard error is the batch standard deviation over sqrt(n_batches).
``ratio_of_means`` is that estimator; the frame pipeline's correlation
profiles use it too, with one frame per row.

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


def ratio_of_means(prod: np.ndarray, factors: np.ndarray, count: int, n_batches: int):
    """Ratio of pooled means, and its batch-means standard error.

    Row i of ``prod`` (rows, ...) sums a product over ``count`` draws, and
    row i of ``factors`` (rows, ..., k) its k factors over the same draws.
    The value pools every row.  The stderr is the standard deviation of the
    ratios of ``n_batches`` equal groups of leading rows over
    sqrt(n_batches), or None with fewer than two groups or empty ones.  The
    groups are totalled in order, so the value does not depend on how the
    rows were computed.
    """
    def ratio(p, f, n):
        return (p / n) / np.prod(f / n, axis=-1)

    size = len(prod) // n_batches if n_batches >= 2 else 0
    if not size:
        return ratio(prod.sum(axis=0), factors.sum(axis=0), count * len(prod)), None
    cut = n_batches * size
    groups = [a[:cut].reshape(n_batches, size, *a.shape[1:]).sum(axis=1) for a in (prod, factors)]
    totals = [np.cumsum(g, axis=0)[-1] + a[cut:].sum(axis=0)
              for g, a in zip(groups, (prod, factors))]
    return (ratio(*totals, count * len(prod)),
            ratio(*groups, count * size).std(axis=0, ddof=1) / np.sqrt(n_batches))


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
        prods, sums = (np.concatenate(parts) for parts in zip(*chunk))
        value, stderr = ratio_of_means(prods, sums, batch_size, len(seeds))
        estimates.append(IcfEstimate(float(value), float(stderr),
                                     batch_size * len(seeds), len(seeds)))
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
