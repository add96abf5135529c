"""Outside-in layer trace: wrap public functions where they are looked up.

Each wrapped call records a span ``[name, start, end, parent]`` in memory,
where ``parent`` is the index of the enclosing span or -1. Optional counter
functions see the call's arguments and result and add to named counts. A
name that no longer exists in its module is reported as absent and the run
goes on, and so does a call whose counter no longer fits its arguments.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        """Return ``fn`` wrapped so that each call records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                try:
                    counter(self.counts, args, kwargs, result)
                except Exception:  # noqa: BLE001 - a changed signature loses a count only
                    self.uncounted.add(name)
            return result

        return traced

    def install(self, hooks) -> None:
        """Wrap ``module.attr`` for each ``(module, attr, span_name, counter)``."""
        for module_name, attr, name, counter in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, counter))


def self_times(spans, duration) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    ``duration(start, end)`` converts a span's interval to seconds, so idle
    intervals inside a span can be left out. Children of one span run one
    after another, so their durations do not overlap.
    """
    own = [duration(s[1], s[2]) for s in spans]
    out = list(own)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            out[span[3]] -= own[i]
    return out


def totals(spans, values) -> dict[str, float]:
    """Sum ``values`` (one per span) by span name."""
    out: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, values):
        out[span[0]] += value
    return out

