"""In-memory spans for the traced run.

Each span records its name, start, end, parent span and op id.  Spans
live in a list until the run ends and are written out once.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; ``span`` is the context manager the staged ops
    open around each layer call.  ``counters`` (a callable returning
    ``{name: value}``) is sampled when a root span opens and closes, and
    the differences are summed into :attr:`counter_deltas`."""

    def __init__(self, counters):
        self.spans = []
        self.op = None
        self.counter_deltas = {}
        self._counters = counters
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": parent, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        before = self._counters() if parent is None else None
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            if before is not None:
                for key, value in self._counters().items():
                    delta = value - before.get(key, 0)
                    self.counter_deltas[key] = (
                        self.counter_deltas.get(key, 0) + delta)

    def self_times(self):
        """Span id -> self time in seconds."""
        own = {span["id"]: span["end"] - span["start"] for span in self.spans}
        for span in self.spans:
            if span["parent"] is not None:
                own[span["parent"]] -= span["end"] - span["start"]
        return own
