"""Spans around quandlekit's layer functions, wrapped in place.

With tracing off (``NullTracer``) nothing is wrapped and the library runs
as shipped.  With tracing on (``Tracer``), ``install`` replaces each named
layer function, in every namespace that holds it (the quandlekit modules
and the benchmark's own), by a wrapper that records a span (name, start,
end, parent) in memory and adds the layer's work counts.  The program then
runs its own calls in its own order, and a layer function the library
calls internally, such as the Cayley index table inside ``double_cosets``,
becomes a child span with its own self time.  The item being processed is
the root span, so all spans of one item share it.  Self time of a span is
its duration minus the time its direct children cover, summed per name
when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Tracing off: no wrappers, no spans, no counts."""

    enabled = False

    def install(self, layers, namespaces=()):
        pass

    def span(self, name):
        return nullcontext()


class Tracer:
    """Tracing on: one span per call of a wrapped layer function."""

    enabled = True

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self, layers, namespaces=()):
        """Wrap each layer function in place.

        ``layers`` maps a span name to (module under quandlekit, function
        name, counter); counter is None or a callable (args, result) that
        returns {count name: amount}.  Every loaded quandlekit module and
        every module in ``namespaces`` that binds the original function
        gets the wrapper instead.
        """
        for name, (module_name, attr, counter) in layers.items():
            module = importlib.import_module(f"quandlekit.{module_name}")
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, counter)
            holders = [m for key, m in sys.modules.items()
                       if key == "quandlekit" or key.startswith("quandlekit.")]
            for holder in holders + list(namespaces):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + amount
            return result
        return wrapper

    def layers(self, names) -> dict[str, dict[str, float]]:
        """{name: {"s": summed self seconds, "calls": span count}} for every
        name given, zero for layers that never ran, plus the item span."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {n: {"s": 0.0, "calls": 0} for n in names}
        for (name, start, end, _), child_time in zip(self.spans, covered):
            entry = out.setdefault(name, {"s": 0.0, "calls": 0})
            entry["s"] += (end - start) - child_time
            entry["calls"] += 1
        return out
