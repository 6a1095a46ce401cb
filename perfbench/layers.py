"""Where the traced run puts its spans, and the per-layer metrics made from them.

``instrument`` wraps each icfsim layer at the names its callers look up:
the CLI's imported names for the calls ``icfsim.cli.main`` makes, the
module globals for calls made inside the library (``montecarlo`` calling
``sources``, ``expansion.verify_closed_form`` calling the closed forms,
``frameio.save_frames`` calling ``write_pgm``), and the module attributes
the benchmark itself calls through.

Times are per loop cycle (one pass over the workload's fixed job list),
as the median over the traced cycles.  Counts come from the first traced
cycle, so they repeat exactly for a seed.  RSS growth is summed over the
whole traced process, because the high-water mark rises only once.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import PRIME_CYCLE, self_time

# name -> (unit, better)
PER_LAYER = {
    "sources.sample_batch.s": ("s", "lower"),
    "sources.sample_batch.calls": ("count", "lower"),
    "sources.sample_batch.samples": ("count", "higher"),
    "sources.detector_intensities.s": ("s", "lower"),
    "sources.detector_intensities.calls": ("count", "lower"),
    "montecarlo.estimate.s": ("s", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.batches": ("count", "lower"),
    "montecarlo.pools_created": ("count", "lower"),
    "montecarlo.thread_utilization": ("frac", "higher"),
    "analytic.closed_form.s": ("s", "lower"),
    "analytic.closed_form.calls": ("count", "lower"),
    "expansion.icf_general.s": ("s", "lower"),
    "expansion.icf_general.calls": ("count", "lower"),
    "expansion.table_build_s": ("s", "lower"),
    "frames.synth_frames.s": ("s", "lower"),
    "frames.synth_frames.maxrss_growth_mb": ("MB", "lower"),
    "frames.saturated_frac": ("frac", "lower"),
    "frames.roi_average.s": ("s", "lower"),
    "frames.roi_average.maxrss_growth_mb": ("MB", "lower"),
    "frames.profiles.s": ("s", "lower"),
    "frameio.save_frames.s": ("s", "lower"),
    "frameio.save_frames.bytes": ("bytes", "lower"),
    "frameio.write_pgm.calls": ("count", "lower"),
    "frameio.load_frames.s": ("s", "lower"),
    "frameio.load_frames.bytes": ("bytes", "lower"),
    "frameio.load_frames.maxrss_growth_mb": ("MB", "lower"),
    "frameio.read_pgm.calls": ("count", "lower"),
    "patternio.write.s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}


def _binder(module: str, attr: str):
    """Map a call's (args, kwargs) to named arguments, defaults applied."""
    sig = inspect.signature(getattr(importlib.import_module(module), attr))

    def bind(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return bind


def _stack_bytes(manifest_or_dir) -> int:
    """Bytes of the frame files a stack manifest lists (manifest excluded)."""
    path = Path(manifest_or_dir)
    manifest = path / "manifest.json" if path.is_dir() else path
    names = json.loads(manifest.read_text())["frames"]
    return sum(os.path.getsize(manifest.parent / n) for n in names)


def instrument(tracer) -> None:
    """Install every wrapper the per-layer metrics need."""
    scan_args = _binder("icfsim.montecarlo", "estimate_scan")
    point_args = _binder("icfsim.montecarlo", "estimate_icf")
    batch_args = _binder("icfsim.sources", "sample_batch")

    def scan_attrs(args, kwargs):
        a = scan_args(args, kwargs)
        return {"workers": a["workers"],
                "batches": a["n_batches"] * len(a["pattern"].grid)}

    def point_attrs(args, kwargs):
        a = point_args(args, kwargs)
        return {"workers": a["workers"], "batches": a["n_batches"]}

    def saturation(span, args, kwargs, stack):
        bits = stack.metadata.get("bit_depth")
        full = 2 ** bits - 1 if bits else None
        span.attrs["saturated"] = (int(np.count_nonzero(stack.frames == full))
                                   if full is not None else 0)
        span.attrs["pixels"] = int(stack.frames.size)

    def saved_bytes(span, args, kwargs, manifest):
        span.attrs["bytes"] = _stack_bytes(manifest)

    def loaded_bytes(span, args, kwargs, stack):
        span.attrs["bytes"] = _stack_bytes(args[0] if args else kwargs["path"])

    w = tracer.wrap
    w("icfsim.cli", "main", "cli.main")
    w("icfsim.montecarlo", "sample_batch", "sources.sample_batch",
      before=lambda a, k: {"samples": batch_args(a, k)["size"]})
    w("icfsim.montecarlo", "detector_intensities", "sources.detector_intensities")
    tracer.wrap_pool("icfsim.montecarlo")
    w("icfsim.cli", "estimate_scan", "montecarlo.estimate", before=scan_attrs)
    w("icfsim.montecarlo", "estimate_scan", "montecarlo.estimate", before=scan_attrs)
    w("icfsim.montecarlo", "estimate_icf", "montecarlo.estimate", before=point_attrs)
    for attr in ("g2_point", "g3_point", "g4_point"):
        w("icfsim.expansion", attr, "analytic.closed_form")
    w("icfsim.cli", "scan", "analytic.closed_form")
    w("icfsim.cli", "verify_closed_form", "expansion.verify_closed_form")
    w("icfsim.expansion", "icf_general", "expansion.icf_general",
      before=lambda a, k: {"order": int(np.size(a[1] if len(a) > 1 else k["delta"]))})
    w("icfsim.cli", "synth_frames", "frames.synth_frames", rss=True, after=saturation)
    w("icfsim.cli", "roi_average", "frames.roi_average", rss=True)
    w("icfsim.cli", "g3_profile", "frames.profiles")
    w("icfsim.cli", "g4_profile", "frames.profiles")
    # no metric of their own; wrapped so that cli.self_s leaves them out
    w("icfsim.cli", "mean_profile", "frames.mean_profile")
    w("icfsim.cli", "fringe_visibility", "frames.fringe_visibility")
    w("icfsim.cli", "save_frames", "frameio.save_frames", after=saved_bytes)
    w("icfsim.frameio", "write_pgm", "frameio.write_pgm")
    w("icfsim.cli", "load_frames", "frameio.load_frames", rss=True, after=loaded_bytes)
    w("icfsim.frameio", "read_pgm", "frameio.read_pgm")
    w("icfsim.cli", "write_pattern_csv", "patternio.write")
    w("icfsim.cli", "write_pattern_json", "patternio.write")


def layer_metrics(spans, overhead_frac: float) -> dict:
    """Per-layer metric values from a traced run's spans (0 where a layer idles)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    by_cycle = defaultdict(list)
    for s in spans:
        by_cycle[s.cycle].append(s)
    cycles = sorted(c for c in by_cycle if c is not None and c > PRIME_CYCLE)
    first = by_cycle[cycles[0]] if cycles else []
    traced = [s for c in cycles for s in by_cycle[c]]

    def named(group, *names):
        return [s for s in group if s.name in names]

    def per_cycle(fn) -> float:
        return statistics.median(fn(by_cycle[c]) for c in cycles) if cycles else 0.0

    def seconds(*names) -> float:
        return per_cycle(lambda g: sum(s.duration for s in named(g, *names)))

    def calls(name) -> int:
        return len(named(first, name))

    def descendants(span, prefix):
        out, todo = [], list(children[span.id])
        while todo:
            s = todo.pop()
            todo.extend(children[s.id])
            if s.name.startswith(prefix):
                out.append(s)
        return out

    def growth(name) -> float:
        return sum(s.attrs.get("maxrss_growth_mb", 0.0) for s in named(spans, name))

    pooled = [s for s in named(traced, "montecarlo.estimate")
              if s.attrs["workers"] > 1]
    busy = sum(c.duration for s in pooled for c in named(children[s.id], "montecarlo.task"))
    capacity = sum(s.duration * s.attrs["workers"] for s in pooled)

    table_build = 0.0
    by_order = defaultdict(list)
    for s in sorted(named(spans, "expansion.icf_general"), key=lambda s: s.start):
        by_order[s.attrs["order"]].append(s.duration)
    for durations in by_order.values():
        if len(durations) > 1:
            table_build += max(0.0, durations[0] - statistics.median(durations[1:]))

    synths = named(first, "frames.synth_frames")
    pixels = sum(s.attrs["pixels"] for s in synths)

    return {
        "sources.sample_batch.s": seconds("sources.sample_batch"),
        "sources.sample_batch.calls": calls("sources.sample_batch"),
        "sources.sample_batch.samples": sum(
            s.attrs["samples"] for s in named(first, "sources.sample_batch")),
        "sources.detector_intensities.s": seconds("sources.detector_intensities"),
        "sources.detector_intensities.calls": calls("sources.detector_intensities"),
        "montecarlo.estimate.s": seconds("montecarlo.estimate"),
        "montecarlo.self_s": per_cycle(lambda g: sum(
            self_time(s, descendants(s, "sources."))
            for s in named(g, "montecarlo.estimate"))),
        "montecarlo.batches": sum(
            s.attrs["batches"] for s in named(first, "montecarlo.estimate")),
        "montecarlo.pools_created": statistics.median(
            len(named(children[s.id], "montecarlo.pool")) for s in pooled)
        if pooled else 0,
        "montecarlo.thread_utilization": busy / capacity if capacity else 0.0,
        "analytic.closed_form.s": seconds("analytic.closed_form"),
        "analytic.closed_form.calls": calls("analytic.closed_form"),
        "expansion.icf_general.s": seconds("expansion.icf_general"),
        "expansion.icf_general.calls": calls("expansion.icf_general"),
        "expansion.table_build_s": table_build,
        "frames.synth_frames.s": seconds("frames.synth_frames"),
        "frames.synth_frames.maxrss_growth_mb": growth("frames.synth_frames"),
        "frames.saturated_frac": (sum(s.attrs["saturated"] for s in synths) / pixels
                                  if pixels else 0.0),
        "frames.roi_average.s": seconds("frames.roi_average"),
        "frames.roi_average.maxrss_growth_mb": growth("frames.roi_average"),
        "frames.profiles.s": seconds("frames.profiles"),
        "frameio.save_frames.s": seconds("frameio.save_frames"),
        "frameio.save_frames.bytes": sum(
            s.attrs["bytes"] for s in named(first, "frameio.save_frames")),
        "frameio.write_pgm.calls": calls("frameio.write_pgm"),
        "frameio.load_frames.s": seconds("frameio.load_frames"),
        "frameio.load_frames.bytes": sum(
            s.attrs["bytes"] for s in named(first, "frameio.load_frames")),
        "frameio.load_frames.maxrss_growth_mb": growth("frameio.load_frames"),
        "frameio.read_pgm.calls": calls("frameio.read_pgm"),
        "patternio.write.s": seconds("patternio.write"),
        "cli.self_s": per_cycle(lambda g: sum(
            self_time(s, children[s.id]) for s in named(g, "cli.main"))),
        "trace.overhead_frac": overhead_frac,
    }
