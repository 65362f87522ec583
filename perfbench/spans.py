"""Span recording and the statistics the benchmark reports.

A span is one call into a layer, recorded from the benchmark's side of the
call: its name, start and end (``time.perf_counter`` seconds), the index of
the enclosing span, the run id it belongs to, and the process's peak RSS in
MB when it ended.  Spans stay in memory until the run is over.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


def peak_rss_mb():
    """``ru_maxrss`` of this process in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    rss_mb: float

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``spans[i].parent`` is an index into ``spans``."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)  # reserve the slot so children point past it
        self._open.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx] = Span(name, start, end, parent, self.run_id, peak_rss_mb())

    def to_json(self):
        return [asdict(s) for s in self.spans]


def span_cost(n=2000):
    """Seconds one span adds to a traced call, timed over ``n`` empty spans."""
    tracer = Tracer("calibration")
    t = time.perf_counter()
    for _ in range(n):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - t) / n


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Seconds per span name: each span's duration minus its children's cover.

    ``spans`` holds Span objects, or their dicts, whose ``parent`` indexes
    the same list.
    """
    spans = [s if isinstance(s, Span) else Span(**s) for s in spans]
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for i, s in enumerate(spans):
        own = s.seconds - _covered(children.get(i, ()), s.start, s.end)
        out[s.name] = out.get(s.name, 0.0) + own
    return out


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))

