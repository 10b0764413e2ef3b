"""In-memory spans and counts for the traced benchmark run.

Spans are recorded by the benchmark around its calls into each
``rmlprune`` layer; nothing inside the package is instrumented.  Every op
is a root span, and every layer call made during it is a child span
carrying the op id.  Garbage-collector pauses are recorded through
``gc.callbacks`` and charged to the op that was running.
"""

from __future__ import annotations

import contextlib
import gc
import json
import time
from collections import defaultdict
from pathlib import Path


class NullTracer:
    """The untraced run: spans and counts cost one no-op call."""

    _null = contextlib.nullcontext()

    def op(self, name: str):
        return self._null

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float):
        pass


class Tracer:
    """Records spans ``[name, start, end, parent, op]`` and per-op counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self.gc_pauses: list[tuple[int, int, float]] = []  # (op, generation, seconds)
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0
        self._gc_start = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter()

    @contextlib.contextmanager
    def op(self, name: str):
        """A root span; GC pauses inside it are charged to it."""
        self._op = self._next_op
        self._next_op += 1
        gc.callbacks.append(self._on_gc)
        try:
            with self.span(name):
                yield
        finally:
            gc.callbacks.remove(self._on_gc)
            self._op = None

    def count(self, name: str, value: float):
        self.counts[self._op][name] = self.counts[self._op].get(name, 0) + value

    def _on_gc(self, phase: str, info: dict):
        now = time.perf_counter()
        if phase == "start":
            self._gc_start = now
        else:
            self.gc_pauses.append((self._op, info["generation"], now - self._gc_start))

    def ops(self) -> list[list]:
        return [s for s in self.spans if s[3] is None]

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, seconds of self time per span name (span minus children)."""
        child_time = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            out[op][name] += end - start - child_time[index]
        return out

    def dump(self, path: Path):
        """Write every span and count as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
            for op, counts in sorted(self.counts.items()):
                fh.write(json.dumps({"op": op, "counts": counts}) + "\n")
            for op, generation, seconds in self.gc_pauses:
                fh.write(json.dumps({"op": op, "gc_generation": generation, "gc_seconds": seconds}) + "\n")
