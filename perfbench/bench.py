"""The benchmark runner: closed loop, set-up probes, metrics and provenance.

An untraced run (``trace=False``) times set-up in fresh processes, primes
the workload in-process, then repeats whole cycles until the run's time is
up and reports the end-to-end metrics.  A traced run installs the span
wrappers, primes, runs traced cycles for the first half of its time and
untraced cycles for the second half, and reports the per-layer metrics;
the two halves give the tracing overhead.

Every timed span, each job and each set-up probe, is scaled to a reference
host speed (see ``calibration``); one scale serves every leg, so the legs
stay comparable with each other.  The end-to-end metrics use the scaled
times; the report also gives the raw ones.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import icfsim
import layers
from calibration import at_reference, calibrate
from spans import Tracer, maxrss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 120

# name -> (unit, meaning); the same names and units as BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "process start to ready: imports plus the first, cold "
                     "calls (median of fresh-process probes, reference speed)"),
    "job_a_per_s": ("1/s", "leg a items per second (median over cycles, "
                           "reference speed)"),
    "job_b_per_s": ("1/s", "leg b items per second (median over cycles, "
                           "reference speed)"),
    "peak_rss_mb": ("MB", "high-water RSS of the benchmark process"),
}


def timed(fn) -> tuple[object, float, float]:
    """(result, raw seconds, seconds at reference speed) of ``fn()``.

    The calibration runs right before and right after ``fn``; their mean
    gives the host's speed while ``fn`` ran.
    """
    before = calibrate()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    return result, elapsed, at_reference(elapsed, 0.5 * (before + calibrate()))


@dataclass
class JobResult:
    leg: str
    items: int
    seconds: float
    ref_seconds: float  # ``seconds`` scaled to the reference speed
    problems: list = field(default_factory=list)


@dataclass
class Cycle:
    jobs: list

    @property
    def busy(self) -> float:
        return sum(j.ref_seconds for j in self.jobs)


def _problems(fn, *args) -> tuple[object, list]:
    """Call ``fn``; an exception becomes a problem, not a crash of the loop."""
    try:
        return fn(*args), []
    except Exception as exc:  # a failed job counts in error_rate
        return None, [f"{type(exc).__name__}: {exc}"]


def run_cycle(workload, seed: int, index: int, out: Path,
              tracer: Tracer | None = None) -> Cycle:
    """Run one pass over the workload's jobs; checks run after each timed span."""
    if tracer is not None:
        tracer.cycle = index
    results = []
    for k, job in enumerate(workload.cycle(seed, index, out)):
        if tracer is not None:
            tracer.job = index * 1000 + k
        (result, problems), elapsed, ref = timed(lambda: _problems(job.run))
        if not problems:
            found, problems = _problems(job.check, result)
            problems = problems or found
        results.append(JobResult(job.leg, job.items, elapsed, ref, problems))
    return Cycle(results)


def run_loop(workload, seed: int, out: Path, first: int, until: float,
             tracer: Tracer | None = None) -> list:
    """Repeat whole cycles, at least one, until ``until`` (a perf_counter time).

    A cycle starts only if half a cycle's mean time still fits before
    ``until``, so a run overshoots its time by at most about half a cycle.
    """
    cycles = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if cycles and now + 0.5 * (now - start) / len(cycles) >= until:
            return cycles
        cycles.append(run_cycle(workload, seed, first + len(cycles), out, tracer))


def measure_setup(name: str, scratch: Path, repeats: int = SETUP_REPEATS):
    """Raw and reference-speed seconds from process start to ready, one
    pair per fresh probe process.

    A probe's time ends at its "ready" line.  The probe then calibrates in
    its own process, on the core that ran its set-up, and exits; the parent
    reaps it outside the timed span.
    """
    raw, ref = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(scratch)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed: {err.strip()[-500:]}")
        raw.append(elapsed)
        ref.append(at_reference(elapsed, float(rest)))
    return raw, ref


def cycle_rates(cycles, legs, reference: bool = True) -> list:
    """Items per second of the jobs in ``legs``, one value per cycle, at
    the reference speed or (``reference=False``) as measured."""
    rates = []
    for c in cycles:
        jobs = [j for j in c.jobs if j.leg in legs]
        seconds = sum(j.ref_seconds if reference else j.seconds for j in jobs)
        rates.append(sum(j.items for j in jobs) / seconds)
    return rates


def latency_summary(seconds: list) -> dict:
    """Median job time, plus the highest of p90/p99 with >= 10 jobs beyond it."""
    summary = {"n": len(seconds), "p50_s": statistics.median(seconds)}
    if len(seconds) >= 2:
        cuts = statistics.quantiles(seconds, n=100)
        for p in (99, 90):
            if len(seconds) * (100 - p) / 100 >= 10:
                summary[f"p{p}_s"] = cuts[p - 1]
                break
    return summary


def _git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "icfsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "icfsim": icfsim.__version__,
        "git_sha": _git_sha(ROOT),
        "src_sha256": _source_digest(ROOT),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": workload.sizes,
    }


def _failures(workload, cycles) -> tuple[int, int, list]:
    """(attempted, failed, problems); a failed run-level check fails every job."""
    jobs = [j for c in cycles for j in c.jobs]
    problems = [p for j in jobs for p in j.problems]
    failed = sum(1 for j in jobs if j.problems)
    run_level = workload.finish()
    if run_level:
        problems += run_level
        failed = len(jobs)
    return len(jobs), failed, problems


def run_workload(workload, seed: int, seconds: float, trace: bool, out: Path,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object and a detailed report."""
    out.mkdir(parents=True, exist_ok=True)
    report = {"provenance": provenance(workload, seed, seconds, trace)}
    if trace:
        tracer = Tracer()
        layers.instrument(tracer)
        try:
            workload.prime(out)
            start = time.perf_counter()
            traced = run_loop(workload, seed, out, 0, start + seconds / 2, tracer)
        finally:
            tracer.restore()
        untraced = run_loop(workload, seed, out, len(traced), start + seconds)
        cycles = traced + untraced
        overhead = (statistics.median(c.busy for c in traced)
                    / statistics.median(c.busy for c in untraced) - 1.0)
        values = layers.layer_metrics(tracer.spans, overhead)
        units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        # next to the run's scratch directory, which is removed afterwards
        spans_path = out.parent / f"spans-{workload.name}.json"
        tracer.dump(spans_path)
        report.update(traced_cycles=len(traced), untraced_cycles=len(untraced),
                      spans=len(tracer.spans), spans_file=str(spans_path))
    else:
        setup_raw, setup_ref = measure_setup(workload.name, out / "probe", setup_repeats)
        workload.prime(out)
        cycles = run_loop(workload, seed, out, 0, time.perf_counter() + seconds)
        legs = {"a": workload.legs["a"], "b": workload.legs["b"]}
        if workload.total:
            legs["ab"] = workload.total
        rates = {leg: cycle_rates(cycles, leg) for leg in legs}
        values = {
            "setup_s": statistics.median(setup_ref),
            "job_a_per_s": statistics.median(rates["a"]),
            "job_b_per_s": statistics.median(rates["b"]),
            "peak_rss_mb": maxrss_mb(),
        }
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        # the workload-specific names, at the reference speed and as measured
        named = {name: {"reference": statistics.median(rates[leg]),
                        "raw": statistics.median(cycle_rates(cycles, leg, False))}
                 for leg, name in legs.items()}
        named["setup_s"] = {"reference": values["setup_s"],
                            "raw": statistics.median(setup_raw)}
        report.update(named=named, cycles=len(cycles),
                      setup_probes_s={"raw": setup_raw, "reference": setup_ref},
                      cycle_rates={leg: rates[leg] for leg in ("a", "b")},
                      latency={leg: latency_summary([j.seconds for c in cycles
                                                     for j in c.jobs if j.leg == leg])
                               for leg in "ab"})
    attempted, failed, problems = _failures(workload, cycles)
    report["error_rate"] = failed / attempted
    report["problems"] = problems[:20]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "report": report,
    }


def run_isolated(workload, seed: int, seconds: float, trace: bool) -> dict:
    """``run_workload`` in a scratch directory under perfbench/out, removed afterwards."""
    out = HERE / "out" / f"run-{os.getpid()}"
    try:
        return run_workload(workload, seed, seconds, trace, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)

