"""Outside-in spans: recorded here, around calls into the program.

A span is one call of a traced entry point: name, the per-layer metric it
feeds, start, end, the span that was open when it started (its parent),
and the request it served.  Everything runs on one thread and wrappers are
strictly call/return, so spans nest properly and a span's *self time* is
its duration minus its direct children's durations.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from typing import Callable, Sequence

from .clock import now

# Span fields, by position (lists, not objects: the wrapper is on the hot path).
NAME, METRIC, START, END, PARENT, REQUEST = range(6)
NO_PARENT = -1


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = now):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: str = ""

    def wrap(self, fn: Callable, name: str, metric: str) -> Callable:
        """A wrapper that records one span per call of ``fn``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else NO_PARENT
            spans.append([name, metric, clock(), 0.0, parent, self.request])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()

        return traced

    def wrap_result(self, factory: Callable, name: str, metric: str) -> Callable:
        """For a function that *returns* the callable worth timing (an
        expression compiler): the factory runs untraced, its product is
        wrapped."""

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name, metric)

        return traced_factory


def self_times(spans: Sequence[Sequence]) -> dict[str, float]:
    """Seconds of self time per metric: each span's duration minus the
    durations of the spans whose parent it is."""
    child_time = defaultdict(float)
    for span in spans:
        if span[PARENT] != NO_PARENT:
            child_time[span[PARENT]] += span[END] - span[START]
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        totals[span[METRIC]] += (span[END] - span[START]) - child_time[index]
    return dict(totals)


def call_counts(spans: Sequence[Sequence]) -> dict[str, int]:
    """Number of spans per span name."""
    counts: dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[NAME]] += 1
    return dict(counts)


def write_chrome_trace(spans: Sequence[Sequence], path, meta: dict) -> None:
    """Chrome trace-event JSON (``ph: X`` complete events, microseconds);
    chrome://tracing and ui.perfetto.dev open it as is."""
    origin = spans[0][START] if spans else 0.0
    events = []
    for index, span in enumerate(spans):
        events.append(
            {
                "name": span[NAME],
                "cat": span[METRIC].split(".", 1)[0],
                "ph": "X",
                "ts": round((span[START] - origin) * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": span[PARENT], "request": span[REQUEST]},
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, fh)
