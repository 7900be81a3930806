"""Spans around the benchmark's calls into `linext`, kept in memory.

Tracing lives in the benchmark only: a span opens just before a call into a
public `linext` function and closes when it returns, so nothing inside the
package is instrumented.  With tracing off, `call` is a plain call.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans = []  # dicts: id, name, op, start, end, parent, workload
        self._open = []  # ids of the spans not yet closed, innermost last

    def _begin(self, name: str, op: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span: dict):
        span["end"] = perf_counter()
        self._open.pop()

    def call(self, name: str, op: str, fn, *args):
        """Return fn(*args); when tracing, record a span `name` for operation `op`."""
        if not self.enabled:
            return fn(*args)
        span = self._begin(name, op)
        try:
            return fn(*args)
        finally:
            self._end(span)

    @contextmanager
    def root(self, name: str):
        """The span that holds a whole job; the call spans are its children."""
        span = self._begin(name, name) if self.enabled else None
        try:
            yield
        finally:
            if span is not None:
                self._end(span)


def self_times(spans) -> dict:
    """Span id -> its duration minus the part its child spans cover."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}
