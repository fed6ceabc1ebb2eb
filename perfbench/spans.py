"""In-memory span recorder for the traced in-process run.

A span is one call into a layer: its name, start, end, the span that
caused it (its parent), the trace it belongs to, and counts attached at
the same boundary.  Spans stay in memory until the run ends and are then
written out as JSON lines.

A span's self time is its duration minus the part of its interval that
its direct children cover.  For a properly nested tree the self times of
all spans under a root add up to the root's duration, which is how a
traced run shows that its layers account for the whole sequence.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NullTracer", "covered_length", "self_times", "write_jsonl"]


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    trace_id: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one trace; not thread-safe (one client)."""

    enabled = True

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(name, next(self._ids), parent, self.trace_id,
                  time.perf_counter(), counts=dict(counts))
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, counts=None):
        """fn wrapped in a span; counts(args, result) adds to the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if counts is not None:
                    sp.counts.update(counts(args, result))
                return result

        return traced


class NullTracer:
    """The same interface with spans off."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        yield Span(name, 0, None, "", 0.0, counts=dict(counts))


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the time its direct children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for sp in spans:
        if sp.parent_id is not None:
            children[sp.parent_id].append(sp)
    return {
        sp.span_id: sp.duration - covered_length(
            (max(c.start, sp.start), min(c.end, sp.end)) for c in children[sp.span_id]
        )
        for sp in spans
    }


def write_jsonl(spans: list[Span], selfs: dict[int, float], path) -> None:
    with open(path, "w") as fh:
        for sp in spans:
            fh.write(json.dumps({
                "trace_id": sp.trace_id,
                "span_id": sp.span_id,
                "parent_id": sp.parent_id,
                "name": sp.name,
                "start": sp.start,
                "end": sp.end,
                "self_s": selfs[sp.span_id],
                "counts": sp.counts,
            }, sort_keys=True) + "\n")
