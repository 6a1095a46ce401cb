"""The icfsim names the benchmark in ``perfbench/`` looks up must stay importable.

Its traced run wraps functions by module and attribute name, from outside
the package, so deleting or renaming one of them breaks the benchmark but
no other test.
"""

import importlib
import sys
from pathlib import Path

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


def test_traced_and_imported_names_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("spans", "layers", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracer = LookupTracer()
    importlib.import_module("layers").instrument(tracer)
    importlib.import_module("workloads")  # binds its reference functions on import
    assert {"icfsim.montecarlo.detector_intensities", "icfsim.montecarlo.ThreadPoolExecutor",
            "icfsim.cli.load_frames", "icfsim.expansion.g3_point"} <= set(tracer.names)
