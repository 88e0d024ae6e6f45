"""Spans recorded around the benchmark's calls into each kuwalls layer.

A span has a name (``<module>.<function>``, with an optional ``:variant``),
start, end, parent span and request id.  Spans stay in memory and are
written out once, when the run ends, one JSON array
``[id, name, start, end, parent, request]`` per line.  ``NullTracer`` has
the same interface and records nothing; the untraced runs that give the
end-to-end metrics use it.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def request(self, request_id, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None

    def call(self, name, fn, *args, **kwargs):
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._request)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def request(self, request_id: int, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` as request ``request_id``, in a ``bench.request`` span."""
        self._request = request_id
        try:
            return self.call("bench.request", fn, *args, **kwargs)
        finally:
            self._request = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def layer_summary(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per layer; ``bench`` is the request spans' own time."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        for span, own in zip(self.spans, self.self_times()):
            if span.name != "bench.request":
                calls[span.layer] += 1
            busy[span.layer] += own
        return calls, busy

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps([span.id, span.name, span.start, span.end, span.parent, span.request]) + "\n")
