"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, request id). Spans are kept in a
list and written once, as JSON lines, when the run ends. ``self_times``
derives each layer's self time: a span's duration minus the part of its
interval that its child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, request: int):
        idx = len(self.spans)
        rec = {"name": name, "request": request,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) * 1e3
                for s in self.spans if s["name"] == name]

    def self_times_ms(self) -> dict[str, list[float]]:
        """name → per-span self time in ms. Children of one span run
        sequentially here, so their covered part is the sum of their
        durations."""
        child_ms = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_ms[s["parent"]] += (s["end"] - s["start"]) * 1e3
        out: dict[str, list[float]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s["name"]].append((s["end"] - s["start"]) * 1e3 - child_ms[i])
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}) + "\n")
