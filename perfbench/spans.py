"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end, the index of its parent span and the
id of the unit it belongs to. Spans are kept in a list and written out
once, when the run ends. A disabled recorder hands out a shared no-op
context, so the untraced run goes through the same code at no cost.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

_NOOP = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []          # [name, start, end, parent, unit]
        self.unit: int | None = None
        self._stack: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NOOP

    @contextlib.contextmanager
    def _span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Wall duration in seconds of every span with this name."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return dict(out)

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "unit")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


OFF = Tracer(enabled=False)
