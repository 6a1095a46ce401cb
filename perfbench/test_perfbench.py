"""Tests of the benchmark itself: tracer arithmetic and mechanics, failure
accounting, repeatable counts and the BENCHMARK.json contract.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from icfsim import cli, expansion, frameio, montecarlo  # noqa: E402
import bench  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_time, union_length  # noqa: E402

EXACT_COUNTS = [name for name in layers.PER_LAYER
                if name.endswith((".calls", ".bytes", ".samples"))
                or name in ("montecarlo.batches", "montecarlo.pools_created",
                            "frames.saturated_frac")]


def tiny(name):
    return {
        "mc-scan": lambda: workloads.McScan(grid_points=5, samples=20_000, batches=50),
        "mc-point": lambda: workloads.McPoint(samples=20_000, batches=10),
        "frames": lambda: workloads.Frames(frames=200, parts=2),
        "oracle": lambda: workloads.Oracle(trials=20, tuples_per_order=4),
    }[name]()


def test_union_length_merges_and_clips():
    assert union_length([(1, 4), (2, 6), (8, 9), (9.5, 12)], 0, 10) == 6.5
    assert union_length([(-5, -1), (11, 12)], 0, 10) == 0.0
    assert union_length([], 0, 10) == 0.0


def test_self_time_subtracts_union_of_overlapping_thread_spans():
    parent = Span(id=1, parent=None, name="montecarlo.estimate", start=0.0, end=10.0)
    kids = [Span(id=2, parent=1, name="a", start=1.0, end=4.0),   # thread 1
            Span(id=3, parent=1, name="b", start=2.0, end=6.0),   # thread 2, overlaps
            Span(id=4, parent=1, name="c", start=5.0, end=5.5),   # inside the union
            Span(id=5, parent=1, name="d", start=8.0, end=9.0),
            Span(id=6, parent=1, name="e", start=9.5, end=12.0)]  # runs past the parent
    # covered: [1, 6] + [8, 9] + [9.5, 10] = 6.5 s, so 3.5 s of self time,
    # where a plain sum of child durations would give a negative number
    assert self_time(parent, kids) == pytest.approx(3.5)
    assert sum(k.duration for k in kids) > parent.duration


def test_wrappers_restore_original_attributes():
    modules = (cli, montecarlo, expansion, frameio)
    before = {m: dict(vars(m)) for m in modules}
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        changed = {(m.__name__, k) for m in modules for k, v in vars(m).items()
                   if before[m].get(k) is not v}
        assert ("icfsim.cli", "main") in changed
        assert ("icfsim.montecarlo", "sample_batch") in changed
        assert ("icfsim.montecarlo", "ThreadPoolExecutor") in changed
        assert ("icfsim.frameio", "read_pgm") in changed
    finally:
        tracer.restore()
    for m in modules:
        assert vars(m).keys() == before[m].keys()
        for k, v in vars(m).items():
            assert before[m][k] is v, f"{m.__name__}.{k} not restored"


def test_pool_tasks_nest_under_the_submitting_span():
    tracer = Tracer()
    tracer.wrap_pool("icfsim.montecarlo")
    tracer.wrap("icfsim.montecarlo", "sample_batch", "sources.sample_batch")
    tracer.wrap("icfsim.montecarlo", "estimate_icf", "montecarlo.estimate")
    try:
        montecarlo.estimate_icf(workloads.SourceModel.thermal(), [0.1, 0.0, -0.1],
                                n_samples=4000, n_batches=20, seed=3, workers=2)
    finally:
        tracer.restore()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (estimate,) = by_name["montecarlo.estimate"]
    tasks = {s.id for s in by_name["montecarlo.task"]}
    assert len(tasks) == 20
    assert all(s.parent == estimate.id for s in by_name["montecarlo.task"])
    assert [s.parent for s in by_name["montecarlo.pool"]] == [estimate.id]
    assert all(s.parent in tasks for s in by_name["sources.sample_batch"])
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)


def test_tracer_loses_no_span_under_thread_contention():
    tracer = Tracer()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(2000):
                outer = tracer.open("outer")
                tracer.close(tracer.open("inner"))
                tracer.close(outer)
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert len(tracer.spans) == 6 * 2000 * 2
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)
    outer = {s.id for s in tracer.spans if s.name == "outer"}
    assert all(s.parent in outer for s in tracer.spans if s.name == "inner")


def _failed(workload, tmp_path):
    cycle = bench.run_cycle(workload, seed=5, index=0, out=tmp_path)
    return [j for j in cycle.jobs if j.problems]


def test_clean_cycles_have_no_failures(tmp_path):
    for name in workloads.WORKLOADS:
        workload = tiny(name)
        assert _failed(workload, tmp_path) == [], name
        assert workload.finish() == [], name


def test_perturbed_mc_estimate_counts_as_failure(tmp_path, monkeypatch):
    original = montecarlo.estimate_icf

    def off_by_one_ulp(*args, **kwargs):
        est = original(*args, **kwargs)
        if kwargs.get("workers") == 2:
            est = montecarlo.IcfEstimate(np.nextafter(est.value, np.inf), est.stderr,
                                         est.n_samples, est.n_batches)
        return est

    monkeypatch.setattr(montecarlo, "estimate_icf", off_by_one_ulp)
    failed = _failed(tiny("mc-point"), tmp_path)
    assert [j.leg for j in failed] == ["b", "b"]


def test_perturbed_oracle_value_counts_as_failure(tmp_path, monkeypatch):
    original = expansion.icf_general
    monkeypatch.setattr(expansion, "icf_general",
                        lambda model, delta: original(model, delta) * (1 + 1e-8))
    failed = _failed(tiny("oracle"), tmp_path)
    # verify compares the same oracle with the closed forms, so it fails too
    assert [j.leg for j in failed] == ["a", "b"]


def test_failed_run_level_check_fails_every_job(tmp_path):
    workload = tiny("mc-scan")
    cycles = [bench.run_cycle(workload, seed=5, index=0, out=tmp_path)]
    workload.within[:] = [False] * len(workload.within)
    attempted, failed, problems = bench._failures(workload, cycles)
    assert attempted == failed == 6
    assert "within 3 stderr" in problems[-1]


@pytest.mark.parametrize("name", ["mc-scan", "frames", "oracle"])
def test_traced_counts_repeat_for_a_seed(name, tmp_path):
    runs = [bench.run_workload(tiny(name), seed=11, seconds=0.01, trace=True,
                               out=tmp_path / str(i)) for i in range(2)]
    for run in runs:
        assert run["correct"] and set(run["metrics"]) == set(layers.PER_LAYER)
    counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in runs]
    assert counts[0] == counts[1]
    values = counts[0]
    if name == "mc-scan":
        # one pool per grid point of each workers=2 scan
        assert values["montecarlo.pools_created"] == 5
        assert values["montecarlo.batches"] == 2 * 3 * 5 * 50
    elif name == "frames":
        repeats = tiny("frames").process_repeats
        assert values["frameio.write_pgm.calls"] == 200
        assert values["frameio.read_pgm.calls"] == 200 * repeats
        assert values["frameio.load_frames.bytes"] == \
            values["frameio.save_frames.bytes"] * repeats
        assert values["frames.saturated_frac"] > 0
    else:
        assert values["analytic.closed_form.calls"] == 3 * 20
        assert values["expansion.icf_general.calls"] == 3 * 20 + 4 * 4


def test_untraced_run_reports_every_end_to_end_metric(tmp_path):
    run = bench.run_workload(tiny("oracle"), seed=2, seconds=0.01, trace=False,
                             out=tmp_path, setup_repeats=1)
    assert run["correct"] and run["attempted"] >= 2 and run["failed"] == 0
    assert set(run["metrics"]) == set(bench.END_TO_END)
    assert all(m["value"] > 0 for m in run["metrics"].values())
    assert run["report"]["provenance"]["seed"] == 2


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (unit, _) in bench.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        layers.PER_LAYER


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
