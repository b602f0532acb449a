"""In-memory spans around calls into each layer of ``repro``.

The tracer lives entirely in the benchmark: :meth:`Tracer.install`
replaces a fixed list of public functions and methods (as bound in the
modules that call them) with wrappers that record a span per call, and
:meth:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` changes.  Spans are recorded only while :attr:`Tracer.active`
is set, which the runner does for the timed span of a traced request.

A span is ``[name, start, end, parent]`` where ``parent`` is the index
of the enclosing span on the same thread (``-1`` at top level).  The
server of the ``serve`` workload records spans on its event-loop and
executor threads; with one client and one request in flight, every span
recorded during a request belongs to it, so attribution is by time.
"""

from __future__ import annotations

import os
import threading
import time
from collections import Counter

__all__ = ["Tracer", "covered_seconds"]


class Tracer:
    """Span and counter recorder for one benchmark process."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = [name, time.perf_counter(), None, stack[-1] if stack else -1]
        self.spans.append(span)
        index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counts[name] += amount

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (when active)."""
        if not self.active:
            return fn(*args, **kwargs)
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _replace(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``after(result, args, kwargs)`` runs inside the span, while
        active, to count what the call did.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                tracer._close(index)

        self._replace(owner, attr, wrapper)

    def wrap_iterator(self, owner, attr: str, name: str) -> None:
        """Record a span around each step of the iterator ``owner.attr``
        returns, counting the items it yields under ``name``."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))
            while True:
                if not tracer.active:
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    yield item
                    continue
                index = tracer._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer._close(index)
                tracer.counts[name] += 1
                yield item

        self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap the layer boundaries the benchmark reports on.

        Functions are wrapped where their callers look them up, so a
        module that imported a name gets the wrapper.
        """
        import repro.runtime.compiled_backend as compiled_backend
        import repro.search.synthesizer as synthesizer
        import repro.service.server as server
        import repro.service.worker as worker
        from repro.analysis import errors
        from repro.codegen.plan import ExecutablePlan
        from repro.cost.estimator import CostEstimator
        from repro.optimizer.penalty import ParameterOptimizer
        from repro.service.request import ServiceRequest
        from repro.service.store import PlanStore

        def store_get(result, args, kwargs):
            self.count("service.store_hits" if result is not None
                       else "service.store_misses")

        def memo_load(result, args, kwargs):
            self.count("service.memo_entries_loaded", result)

        def memo_dump(result, args, kwargs):
            self.count("service.memo_entries_spilled", result)
            self.count("service.memo_spill_bytes", os.path.getsize(args[1]))

        def diagnostics(result, args, kwargs):
            self.count("analysis.errors", len(errors(result)))

        def counted(name):
            return lambda result, args, kwargs: self.count(name)

        self.wrap(ServiceRequest, "digest", "service.canonicalize")
        self.wrap(ServiceRequest, "resolve", "service.resolve")
        self.wrap(PlanStore, "get", "service.store_get", store_get)
        self.wrap(PlanStore, "put", "service.store_put")
        self.wrap(worker, "load_memo", "service.memo_load", memo_load)
        self.wrap(worker, "dump_memo", "service.memo_dump", memo_dump)
        self.wrap(server, "verify_experiment", "analysis.verify_spec",
                  diagnostics)
        self.wrap(synthesizer.Synthesizer, "synthesize", "search.synthesize")
        self.wrap_iterator(synthesizer, "iter_rewrites", "rules.enumerate")
        self.wrap(CostEstimator, "estimate", "cost.estimate",
                  counted("cost.estimates"))
        self.wrap(synthesizer, "optimistic_cost", "cost.lower_bound")
        self.wrap(ParameterOptimizer, "run", "optimizer.tune",
                  counted("optimizer.tunings"))
        self.wrap(compiled_backend, "compile_exec", "codegen.compile")
        self.wrap(ExecutablePlan, "execute", "runtime.execute")

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def layer_seconds(self) -> Counter:
        """Seconds per span name; a span nested in one of the same name
        (a re-entrant call) is not counted twice."""
        spans = self.spans
        totals: Counter = Counter()
        for span in spans:
            name, parent = span[0], span[3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                totals[name] += span[2] - span[1]
        return totals

    def child_seconds(self, name: str, children: tuple[str, ...]) -> float:
        """Seconds that direct child spans named in ``children`` spent
        inside spans named ``name``."""
        spans = self.spans
        return sum(
            span[2] - span[1]
            for span in spans
            if span[0] in children
            and span[3] >= 0
            and spans[span[3]][0] == name
        )

    def top_level(self) -> list[tuple[float, float]]:
        """(start, end) of every span with no parent on its thread."""
        return [(s[1], s[2]) for s in self.spans if s[3] < 0]


def covered_seconds(
    intervals: list[tuple[float, float]], start: float, end: float
) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered
