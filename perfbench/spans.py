"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public icfsim functions from outside the package: each
wrapper replaces a module attribute at the place its caller looks it up
(``icfsim.cli.load_frames``, ``icfsim.montecarlo.sample_batch``, ...), and
``Tracer.restore`` puts every original back.  No file under ``src/`` is
touched.

A span records its name, start, end, parent span id, the job it belongs
to, the loop cycle it ran in and a few per-call attributes.  Spans are kept
in a list guarded by a lock and written out when the run ends.  Parents are
tracked per thread; work submitted to the wrapped Monte Carlo thread pool
inherits the submitting thread's open span, so batch work running on pool
threads nests under the estimate that started it.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import threading
import time
from dataclasses import dataclass, field

PRIME_CYCLE = -1  # cycle index of spans recorded while the run primes itself


def maxrss_mb() -> float:
    """Process high-water resident set size in MB (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    job: int | None = None
    cycle: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the union of its children's intervals.

    Children may overlap one another (pool threads run side by side), so
    their covered time is the union of their intervals, not the sum.
    """
    return span.duration - union_length(
        [(c.start, c.end) for c in children], span.start, span.end)


class Tracer:
    """Thread-safe span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self.cycle: int | None = PRIME_CYCLE
        self._lock = threading.Lock()
        self._next_id = 1
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span (or adopted parent) on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, **attrs) -> Span:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(id=span_id, parent=self.current(), name=name,
                    start=time.perf_counter(), job=self.job, cycle=self.cycle,
                    attrs=attrs)
        self._stack().append(span_id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span.id:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def event(self, name: str, **attrs) -> None:
        """A zero-length span, e.g. the creation of a thread pool."""
        self.close(self.open(name, **attrs))

    def run_under(self, parent: int | None, fn, *args, **kwargs):
        """Run ``fn`` on this thread as a ``montecarlo.task`` child of ``parent``."""
        stack = self._stack()
        stack.append(parent)
        try:
            span = self.open("montecarlo.task")
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        finally:
            stack.pop()

    # -- patching --------------------------------------------------------
    def wrap(self, module: str, attr: str, name: str, *, rss: bool = False,
             before=None, after=None) -> None:
        """Replace ``module.attr`` with a wrapper that records span ``name``.

        ``before(args, kwargs)`` returns attributes known from the call;
        ``after(span, args, kwargs, result)`` runs once the span is closed,
        so its cost is not charged to the span; it runs in a ``trace.hook``
        span of its own.  With ``rss`` the span records how far the call
        raised the process's peak RSS.
        """
        mod = importlib.import_module(module)
        original = getattr(mod, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            rss0 = maxrss_mb() if rss else 0.0
            span = tracer.open(name, **attrs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if rss:
                span.attrs["maxrss_growth_mb"] = maxrss_mb() - rss0
            if after:
                # a child span of the caller, so that the hook's cost is not
                # charged to the caller's self time
                hook = tracer.open("trace.hook")
                try:
                    after(span, args, kwargs, result)
                finally:
                    tracer.close(hook)
            return result

        self._patch(mod, attr, original, wrapper)

    def wrap_pool(self, module: str, attr: str = "ThreadPoolExecutor") -> None:
        """Replace an executor class with one that records each pool it
        creates and runs every submitted task under the submitter's span."""
        mod = importlib.import_module(module)
        base = getattr(mod, attr)
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                tracer.event("montecarlo.pool")
                super().__init__(*args, **kwargs)

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(),
                                      fn, *args, **kwargs)

        self._patch(mod, attr, base, TracedPool)

    def _patch(self, mod, attr, original, replacement) -> None:
        self._patches.append((mod, attr, original))
        setattr(mod, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def dump(self, path) -> None:
        """Write all spans as one JSON list."""
        rows = [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start": s.start, "end": s.end, "job": s.job,
                 "cycle": s.cycle, **s.attrs} for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
