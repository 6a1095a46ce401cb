"""Host-speed calibration for the benchmark's timed spans.

The host's speed swings by up to about 1.8x, over spans from under a second
to minutes, as other tenants load its cores: far more than the changes the
benchmark must resolve.  So each timed span is paired with a fixed
single-threaded calibration workload, and its time is scaled to the
reference speed at which the calibration takes ``CALIB_REF_S``.  The work
mixes vectorized numpy with interpreted Python, like the jobs, and calls
no icfsim code, so a change to icfsim cannot move it.
"""

import time

import numpy as np

CALIB_REF_S = 0.010  # calibration time at the reference speed (fast host state)
CALIB_RUNS = 3


def _work(a: np.ndarray) -> int:
    for _ in range(10):
        np.cos(a).sum()
    total = 0
    for i in range(100_000):
        total += i * i
    return total


def calibrate() -> float:
    """Mean wall seconds of the calibration work over ``CALIB_RUNS``
    back-to-back runs.  The host flips between speeds even within a second,
    so one run is a poor sample."""
    a = np.linspace(0.0, 1.0, 50_000)
    start = time.perf_counter()
    for _ in range(CALIB_RUNS):
        _work(a)
    return (time.perf_counter() - start) / CALIB_RUNS


def at_reference(elapsed: float, calibration_s: float) -> float:
    """``elapsed`` seconds scaled to the reference speed."""
    return elapsed * CALIB_REF_S / calibration_s
