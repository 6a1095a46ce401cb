"""The benchmark's four workloads.

Each workload is a fixed list of jobs that the runner repeats as a closed
loop (one job at a time, the next one starting when the previous one has
finished).  A pass over the list is a *cycle*.  Every job belongs to leg
``a`` or leg ``b`` of its workload, and each leg's throughput is one
end-to-end metric:

    workload   leg a                         leg b
    mc-scan    icfsim mc, workers=1          estimate_scan, workers=2
    mc-point   estimate_icf, workers=1       estimate_icf, workers=2
    frames     icfsim synth                  icfsim process
    oracle     icfsim verify                 icf_general, orders 5-8

Jobs go through ``icfsim.cli.main`` where the CLI can express them and
through the public library call otherwise.  Both are looked up as module
attributes at call time, so the traced run's wrappers see them.  Every job
has a correctness check that runs after its timed span.  The checks use the
reference functions bound below, when this module is imported and before
any wrapper is installed, so they add no spans to a traced run.

All inputs are drawn from the workload seed: job ``k`` of cycle ``c`` uses
the seed ``job_seed(seed, c, k)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from icfsim import cli, expansion, montecarlo
from icfsim.analytic import PhaseConfig, ScanPattern, g3_point, g4_point, scan
from icfsim.expansion import icf_general as reference_icf_general
from icfsim.frameio import read_pgm as reference_read_pgm
from icfsim.frames import FrameOptics, NoiseModel, synth_frames as reference_synth
from icfsim.patternio import read_pattern_csv
from icfsim.sources import SourceModel

TWO_PI = 2.0 * math.pi
OFFSET = math.pi / 2  # the CLI's default single-detector offset


@dataclass
class Job:
    leg: str  # "a" or "b"
    items: int  # samples, frames or oracle evaluations the job produces
    run: Callable[[], object]
    check: Callable[[object], list]  # result -> list of problems


def job_seed(seed: int, cycle: int, k: int) -> int:
    """Seed of job ``k`` in cycle ``cycle``; a pure function of the workload seed."""
    return int(np.random.SeedSequence([seed, cycle, k]).generate_state(1)[0])


def run_cli(argv: list) -> tuple[int, str]:
    """Run ``icfsim`` in-process; returns (exit code, captured stdout+stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue()


def cli_problems(result) -> list:
    code, text = result
    return [] if code == 0 else [f"exit code {code}: {text.strip()[-300:]}"]


class McScan:
    name = "mc-scan"
    why = ("icfsim mc at CLI defaults (25 points x 1e5 samples, 100 batches), "
           "workers 1 vs 2: per-batch and per-point pool overhead dominate")
    legs = {"a": "mc_samples_per_s", "b": "mc_samples_per_s_w2"}
    total = None
    configs = (("coherent", 3, "symmetric_opposite"),
               ("thermal", 4, "four_point_double_speed"),
               ("thermal", 3, "single_detector"))

    def __init__(self, grid_points=25, samples=100_000, batches=100):
        self.grid_points, self.samples, self.batches = grid_points, samples, batches
        self.within = []  # per grid point: |MC - closed form| <= 3 stderr

    @property
    def sizes(self) -> dict:
        return {"configs": [list(c) for c in self.configs],
                "grid_points": self.grid_points, "samples": self.samples,
                "batches": self.batches, "workers": [1, 2]}

    def _argv(self, kind, order, scheme, seed, out, grid_points, samples, batches):
        return ["mc", "--kind", kind, "--order", order, "--scheme", scheme,
                "--grid-points", grid_points, "--samples", samples,
                "--batches", batches, "--offset", repr(OFFSET), "--seed", seed,
                "--out", out, "--format", "csv"]

    def _pattern(self, order, scheme, grid_points):
        return ScanPattern(order=order, scheme=scheme, offset=OFFSET,
                           grid=np.linspace(0.0, TWO_PI, grid_points))

    def prime(self, out: Path) -> None:
        kind, order, scheme = self.configs[0]
        problems = cli_problems(run_cli(self._argv(
            kind, order, scheme, 1, out / "prime.csv", 3, 1000, 10)))
        if problems:
            raise RuntimeError(f"{self.name} prime failed: {problems}")
        montecarlo.estimate_scan(SourceModel(kind), self._pattern(order, scheme, 3),
                                 n_samples=1000, n_batches=10, seed=1, workers=2)

    def cycle(self, seed: int, index: int, out: Path) -> list:
        jobs = []
        for k, config in enumerate(self.configs):
            jobs.extend(self._pair(config, job_seed(seed, index, k), out / f"mc{k}.csv"))
        return jobs

    def _pair(self, config, seed, path):
        kind, order, scheme = config
        model = SourceModel(kind)
        pattern = self._pattern(order, scheme, self.grid_points)
        argv = self._argv(kind, order, scheme, seed, path, self.grid_points,
                          self.samples, self.batches)
        items = self.grid_points * self.samples
        written = {}

        def check_w1(result):
            problems = cli_problems(result)
            if problems:
                return problems
            est = written["w1"] = read_pattern_csv(path)
            truth = scan(model, pattern).values
            self.within.extend(np.abs(est.values - truth) <= 3.0 * est.stderrs)
            return []

        def check_w2(est):
            w1 = written.get("w1")
            if w1 is None:
                return ["no workers=1 result to compare with"]
            if not (np.array_equal(est.values, w1.values)
                    and np.array_equal(est.stderrs, w1.stderrs)):
                return [f"{kind} order-{order} {scheme}: workers=2 differs from workers=1"]
            return []

        def run_w2():
            return montecarlo.estimate_scan(model, pattern, n_samples=self.samples,
                                            n_batches=self.batches, seed=seed,
                                            workers=2)

        return [Job("a", items, lambda: run_cli(argv), check_w1),
                Job("b", items, run_w2, check_w2)]

    def finish(self) -> list:
        coverage = float(np.mean(self.within)) if self.within else 0.0
        if coverage < 0.95:
            return [f"only {100 * coverage:.1f}% of {len(self.within)} grid points "
                    f"lie within 3 stderr of analytic.scan (need 95%)"]
        return []


class McPoint:
    name = "mc-point"
    why = ("one thermal 4-detector and one coherent 3-detector phase tuple at 4e6 "
           "samples in 100 large batches, workers 1 vs 2: array work dominates")
    legs = {"a": "mc_samples_per_s", "b": "mc_samples_per_s_w2"}
    total = None
    tuples = (("thermal", 4), ("coherent", 3))
    max_z = 5.0

    def __init__(self, samples=4_000_000, batches=100):
        self.samples, self.batches = samples, batches

    @property
    def sizes(self) -> dict:
        return {"tuples": [list(t) for t in self.tuples], "samples": self.samples,
                "batches": self.batches, "workers": [1, 2]}

    def prime(self, out: Path) -> None:
        for kind, n in self.tuples:
            for workers in (1, 2):
                montecarlo.estimate_icf(SourceModel(kind), np.zeros(n), n_samples=1000,
                                        n_batches=10, seed=1, workers=workers)

    def cycle(self, seed: int, index: int, out: Path) -> list:
        jobs = []
        for k, (kind, n) in enumerate(self.tuples):
            s = job_seed(seed, index, k)
            delta = np.random.default_rng(s).uniform(0.0, TWO_PI, n)
            jobs.extend(self._pair(SourceModel(kind), delta, s))
        return jobs

    def _pair(self, model, delta, seed):
        closed = (g3_point if delta.size == 3 else g4_point)(model, PhaseConfig(delta))
        estimates = {}

        def run(workers):
            return lambda: montecarlo.estimate_icf(
                model, delta, n_samples=self.samples, n_batches=self.batches,
                seed=seed, workers=workers)

        def check(workers):
            def check_one(est):
                estimates[workers] = est
                z = abs(est.value - closed) / est.stderr
                problems = [] if z <= self.max_z else [
                    f"{model.kind} {delta.size}-detector estimate {est.value} is "
                    f"{z:.1f} stderr from the closed form {closed}"]
                if workers == 2 and estimates.get(1) != est:
                    problems.append("workers=2 estimate differs from workers=1")
                return problems
            return check_one

        return [Job("a", self.samples, run(1), check(1)),
                Job("b", self.samples, run(2), check(2))]

    def finish(self) -> list:
        return []


_VIS_LINE = re.compile(r"^g([34]) visibility = (\S+) \+/- (\S+)$", re.M)
_THERMAL_LIMIT = {"3": 3.0 / 5.0, "4": 7.0 / 9.0}


class Frames:
    name = "frames"
    why = ("icfsim synth of 1000 thermal frames in 4 runs (600x50, Poisson + read "
           "noise, 16-bit PGM), then icfsim process of the whole stack: "
           "render/write-bound, then read/memory-bound")
    legs = {"a": "synth_frames_per_s", "b": "process_frames_per_s"}
    total = None
    # Spelled out rather than left to CLI defaults, so that the workload's
    # inputs, and the thermal saturation they show, stay fixed.
    optics = FrameOptics(fringe_period_px=60.0, peak_level=30000.0,
                         noise=NoiseModel(gaussian_sigma=300.0, poisson=True),
                         bit_depth=16, frame_width=600, frame_height=50)
    roundtrip_frames = 16

    def __init__(self, frames=1000, parts=4, process_repeats=5, batches=10):
        # The stack is synthesized in ``parts`` CLI runs, because the speed
        # calibration that brackets each job cannot follow the host through
        # one long synth.  A stack is processed several times per cycle, as
        # when a user tries several ROIs or batchings.
        if frames % parts:
            raise ValueError(f"{frames} frames do not split into {parts} parts")
        self.frames, self.parts, self.batches = frames, parts, batches
        self.process_repeats = process_repeats

    @property
    def sizes(self) -> dict:
        o = self.optics
        return {"frames": self.frames, "synth_runs": self.parts,
                "process_runs": self.process_repeats, "width": o.frame_width,
                "height": o.frame_height, "peak_level": o.peak_level,
                "noise_sigma": o.noise.gaussian_sigma, "bit_depth": o.bit_depth,
                "stack_mb": self.frames * o.frame_width * o.frame_height * 2 / 2 ** 20,
                "process_batches": self.batches}

    def _synth_argv(self, frames, seed, stack):
        o = self.optics
        return ["synth", "--kind", "thermal", "--frames", frames, "--seed", seed,
                "--out", stack, "--format", "pgm", "--period-px", o.fringe_period_px,
                "--peak-level", o.peak_level, "--noise-sigma", o.noise.gaussian_sigma,
                "--bit-depth", o.bit_depth, "--frame-width", o.frame_width,
                "--frame-height", o.frame_height, "--phase-modulation", "uniform"]

    def _process_argv(self, stack, prefix):
        return ["process", stack, "--out", prefix, "--format", "csv",
                "--batches", self.batches]

    def prime(self, out: Path) -> None:
        stack = out / "prime_stack"
        for argv in (self._synth_argv(20, 1, stack),
                     self._process_argv(stack, out / "prime")):
            problems = cli_problems(run_cli(argv))
            if problems:
                raise RuntimeError(f"{self.name} prime failed: {problems}")

    def cycle(self, seed: int, index: int, out: Path) -> list:
        per_part = self.frames // self.parts
        parts = [out / f"part{k}" for k in range(self.parts)]
        stack, prefix = out / "stack.json", out / "proc"

        def synth(part, part_seed):
            def check(result):
                problems = cli_problems(result)
                if problems:
                    return problems
                names = json.loads((part / "manifest.json").read_text())["frames"]
                if len(names) != per_part:
                    return [f"manifest lists {len(names)} frames, expected {per_part}"]
                k = min(self.roundtrip_frames, per_part)
                expected = reference_synth(SourceModel.thermal(), self.optics, n=k,
                                           seed=part_seed).frames
                decoded = np.stack([reference_read_pgm(part / n) for n in names[:k]])
                if not np.array_equal(decoded, expected):
                    return [f"PGM round trip of the first {k} frames is not lossless"]
                if part == parts[-1]:
                    _join_stacks(parts, stack)
                return []
            return Job("a", per_part, lambda: run_cli(self._synth_argv(
                per_part, part_seed, part)), check)

        def check_process(result):
            problems = cli_problems(result)
            if problems:
                return problems
            found = {m.group(1): (float(m.group(2)), float(m.group(3)))
                     for m in _VIS_LINE.finditer(result[1])}
            for order in ("3", "4"):
                if order not in found:
                    return [f"g{order} stderr was not formed"]
                pattern = read_pattern_csv(f"{prefix}_g{order}.csv")
                if pattern.stderrs is None or not np.all(np.isfinite(pattern.stderrs)):
                    return [f"g{order} pattern file has no finite stderrs"]
                vis, err = found[order]
                if vis > _THERMAL_LIMIT[order] + 3.0 * err:
                    problems.append(f"g{order} visibility {vis} exceeds the thermal "
                                    f"limit by more than 3 stderr ({err})")
            return problems

        process = Job("b", self.frames, lambda: run_cli(self._process_argv(
            stack, prefix)), check_process)
        return ([synth(part, job_seed(seed, index, k)) for k, part in enumerate(parts)]
                + [process] * self.process_repeats)

    def finish(self) -> list:
        return []


def _join_stacks(parts: list, manifest: Path) -> None:
    """Write one manifest listing the frames of every part stack, in order.

    The parts share their optics, so the first part's period and metadata
    hold for all of them.
    """
    joined = None
    for part in parts:
        m = json.loads((part / "manifest.json").read_text())
        names = [f"{part.name}/{n}" for n in m["frames"]]
        if joined is None:
            joined = dict(m, frames=names)
        else:
            joined["frames"] += names
    manifest.write_text(json.dumps(joined, indent=2) + "\n")


_VERIFY_LINE = re.compile(r"^order ([234]): max \|expansion - closed form\| = (\S+) ", re.M)


class Oracle:
    name = "oracle"
    why = ("icfsim verify (orders 2-4, 1000 trials) and icf_general at orders 5-8: "
           "the only workload where expansion and the closed forms do the work")
    legs = {"a": "verify_evals_per_s", "b": "icf_general_evals_per_s"}
    total = "oracle_evals_per_s"
    orders = (5, 6, 7, 8)
    tolerance = 1e-10

    def __init__(self, trials=1000, tuples_per_order=96):
        self.trials, self.tuples_per_order = trials, tuples_per_order

    @property
    def sizes(self) -> dict:
        return {"verify_trials": self.trials, "verify_orders": [2, 3, 4],
                "general_orders": list(self.orders),
                "general_tuples_per_order": self.tuples_per_order}

    def prime(self, out: Path) -> None:
        problems = cli_problems(run_cli(["verify", "--trials", 1, "--seed", 1]))
        if problems:
            raise RuntimeError(f"{self.name} prime failed: {problems}")
        for n in self.orders:
            expansion.icf_general(SourceModel.coherent(), np.zeros(n))

    def _tuples(self, seed):
        """Half equal-phase coherent tuples, half general ones, per order."""
        rng = np.random.default_rng(seed)
        coherent, thermal = SourceModel.coherent(), SourceModel.thermal()
        cases = []
        for n in self.orders:
            for i in range(self.tuples_per_order):
                if i % 2 == 0:
                    cases.append((coherent, np.full(n, rng.uniform(0.0, TWO_PI)), True))
                else:
                    model = thermal if i % 4 == 1 else coherent
                    cases.append((model, rng.uniform(0.0, TWO_PI, n), False))
        return cases

    def cycle(self, seed: int, index: int, out: Path) -> list:
        verify_seed = job_seed(seed, index, 0)
        cases = self._tuples(job_seed(seed, index, 1))

        def check_verify(result):
            problems = cli_problems(result)
            devs = {m.group(1): float(m.group(2)) for m in _VERIFY_LINE.finditer(result[1])}
            if sorted(devs) != ["2", "3", "4"]:
                return problems + [f"verify printed deviations for orders {sorted(devs)}"]
            return problems + [f"order {o}: deviation {d:g} >= {self.tolerance:g}"
                               for o, d in devs.items() if not d < self.tolerance]

        def run_general():
            return [expansion.icf_general(model, delta) for model, delta, _ in cases]

        def check_general(values):
            problems = []
            for (model, delta, equal), value in zip(cases, values):
                n = delta.size
                if equal:
                    # <(1 + cos theta)^n> = C(2n, n) / 2^n for coherent light
                    expected = math.comb(2 * n, n) / 2 ** n
                    refs = [expected]
                else:
                    # gauge and reversal invariance of the exhaustive sum
                    shift = float(delta[0])
                    refs = [reference_icf_general(model, delta - shift),
                            reference_icf_general(model, delta[::-1])]
                for ref in refs:
                    if abs(value - ref) > self.tolerance * abs(ref):
                        problems.append(f"order {n} {model.kind}: {value} != {ref}")
            return problems

        return [Job("a", 3 * self.trials, lambda: run_cli(
                    ["verify", "--trials", self.trials, "--seed", verify_seed]),
                    check_verify),
                Job("b", len(cases), run_general, check_general)]

    def finish(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (McScan, McPoint, Frames, Oracle)}
