"""A stdlib span recorder installed around the program's entry points.

The benchmark traces the program from the outside: :meth:`SpanRecorder.patch`
replaces a function *where its caller looks it up* (a module global, a
class attribute) with a wrapper that records one span per call, so no
``src/`` file changes.  A span holds its wall interval, the calling
thread's CPU interval and the span that was open on the same thread when
it started.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, NamedTuple

from perfbench.benchstats import covered_length


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a span with no enclosing span on its thread
    name: str
    t0: float  # time.perf_counter(): CLOCK_MONOTONIC, shared by processes
    t1: float
    c0: float  # time.thread_time() of the recording thread
    c1: float
    value: Any  # what the probe's ``measure`` read off the call, if any


class SpanRecorder:
    """Records spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             measure: Callable[[tuple, Any], Any] | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call.

        ``measure(args, result)`` runs after the span closes, so what it
        reads (a size, a count) is not charged to the layer.
        """
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def recorded(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            returned = False
            result = None
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                c1 = time.thread_time()
                t1 = time.perf_counter()
                stack.pop()
                value = (measure(args, result)
                         if measure is not None and returned else None)
                spans.append(Span(span_id, parent, name, t0, t1, c0, c1,
                                  value))

        return recorded

    def patch(self, owner: Any, attr: str, name: str,
              measure: Callable[[tuple, Any], Any] | None = None) -> None:
        """Record ``name`` spans around ``owner.attr`` (a module global or a
        class attribute) for the rest of the process."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(name, raw.__func__,
                                                     measure))
        else:
            replacement = self.wrap(name, raw, measure)
        setattr(owner, attr, replacement)

    def sample(self, name: str, value: Any) -> None:
        """Record a point event (no duration) carrying ``value``."""
        now = time.perf_counter()
        self.spans.append(Span(next(self._ids), 0, name, now, now, 0.0, 0.0,
                               value))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([list(span) for span in self.spans], handle)


def load_spans(path: str) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(*row) for row in json.load(handle)]


def self_times(spans: Iterable[Span]) -> dict[int, tuple[float, float]]:
    """Span id -> ``(wall self, busy self)`` in seconds.

    Wall self time is the span's interval minus the part its direct
    children cover (each child already covers its own nested spans, and
    back-to-back children are counted once).  Busy self time is the span's
    thread CPU time minus its children's; the rest of the wall self time
    is time the layer waited (for the GIL, a socket, a lock).
    """
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[span.parent].append(span)
    out: dict[int, tuple[float, float]] = {}
    for span in spans:
        kids = children.get(span.id, [])
        wall = (span.t1 - span.t0) - covered_length(
            span.t0, span.t1, [(k.t0, k.t1) for k in kids])
        busy = (span.c1 - span.c0) - sum(k.c1 - k.c0 for k in kids)
        out[span.id] = (wall, busy)
    return out
