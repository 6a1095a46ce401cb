"""The icfsim names the benchmark in ``perfbench/`` looks up must stay
importable, and must be the names the code calls.

Its traced run wraps functions by module and attribute name, from outside
the package, so deleting or renaming one of them, or inlining a call that
went through one, breaks the benchmark but no other test.
"""

import importlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import icfsim.cli as cli
from icfsim import ScanPattern, SourceModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class LookupTracer:
    """Looks up every name the tracer would wrap, and patches nothing."""

    def __init__(self):
        self.names = []

    def wrap(self, module, attr, name, **hooks):
        getattr(importlib.import_module(module), attr)
        self.names.append(f"{module}.{attr}")

    def wrap_pool(self, module, attr="ThreadPoolExecutor"):
        getattr(importlib.import_module(module), attr)
        self.names.append(f"{module}.{attr}")


class CountingTracer:
    """Patches every name the tracer would wrap with a wrapper that counts its calls."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.calls = monkeypatch, Counter()

    def wrap(self, module, attr, name=None, **hooks):
        target = importlib.import_module(module)
        fn, key = getattr(target, attr), f"{module.removeprefix('icfsim.')}.{attr}"
        self.calls[key] += 0

        def counted(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        self.monkeypatch.setattr(target, attr, counted)

    def wrap_pool(self, module, attr="ThreadPoolExecutor"):
        self.wrap(module, attr)


# Wrapped names that no run calls: shims kept for the tracer, and a
# reference intensity rule that only tests call.
IDLE = {"cli.load_frames", "expansion.g2_point", "expansion.g3_point", "expansion.g4_point",
        "montecarlo.detector_intensities"}


def instrument(tracer, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "layers", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    importlib.import_module("layers").instrument(tracer)


def test_traced_and_imported_names_exist(monkeypatch):
    tracer = LookupTracer()
    instrument(tracer, monkeypatch)
    importlib.import_module("workloads")  # binds its reference functions on import
    assert {"icfsim.montecarlo.detector_intensities", "icfsim.montecarlo.ThreadPoolExecutor",
            "icfsim.cli.load_frames", "icfsim.expansion.g3_point"} <= set(tracer.names)


def test_traced_names_are_called(monkeypatch, tmp_path, capsys):
    from icfsim import expansion, montecarlo

    tracer = CountingTracer(monkeypatch)
    instrument(tracer, monkeypatch)
    monkeypatch.chdir(tmp_path)
    stack = ["--frames", "24", "--frame-width", "96", "--frame-height", "3"]
    for argv in (["mc", "--samples", "2000", "--batches", "10", "--grid-points", "3"],
                 ["analytic", "--grid-points", "5"], ["synth", *stack], ["process", "stack"],
                 ["process", "stack", "--format", "json"], ["verify", "--trials", "10"]):
        assert cli.main(argv) == 0, argv  # through the name the tracer patches
    expansion.icf_general(SourceModel.thermal(), np.linspace(0.0, 2.5, 6))
    montecarlo.estimate_scan(SourceModel.coherent(),
                             ScanPattern(order=3, scheme="symmetric_opposite",
                                         grid=np.linspace(0.0, np.pi, 3)), 2000, 10)
    # batches of 2 * 16 384 samples or more run on a pool
    montecarlo.estimate_icf(SourceModel.thermal(), [0.0, 1.0, 2.0], 10 * 32_768,
                            n_batches=10, workers=2)
    capsys.readouterr()
    assert {name: n for name, n in tracer.calls.items() if name in IDLE} == dict.fromkeys(IDLE, 0)
    assert [name for name, n in tracer.calls.items() if name not in IDLE and n == 0] == []
