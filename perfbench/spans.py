"""In-memory spans around the benchmark's calls into bootforge's layers.

A span is named `<layer>.<call>`; the layer is the name's first part
(`prng`, `modmath`, `sigparser`, `forge`, `firm`, `bootsim`, `cli`, or
`bench` for the benchmark's own operation and check spans).  Spans keep a
parent, an operation id and counts taken at the same boundary (attempts,
samples, events, bytes copied).  Start and end are CPU seconds
(`clock.cpu_seconds`).  Spans stay in memory and are written out once,
when the run ends.

A disabled tracer hands out one shared no-op span, so the untraced run
pays one method call per boundary and records nothing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from clock import cpu_seconds


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, **counts):
        pass


_NULL = _NullSpan()


class Span:
    __slots__ = ("tracer", "sid", "name", "parent", "op", "start", "end", "counts")

    def __init__(self, tracer: "Tracer", name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        self.parent = stack[-1].sid if stack else None
        self.op = tracer.op_id
        self.sid = len(tracer.spans)
        tracer.spans.append(self)
        stack.append(self)
        self.start = cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.end = cpu_seconds()
        stack = self.tracer._stack
        stack.pop()
        if not stack:
            self.tracer.op_id = None
        return False

    def count(self, **counts):
        self.counts.update(counts)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op_id: int | None = None
        self._next_op = 0

    def span(self, name: str, **counts):
        if not self.enabled:
            return _NULL
        return Span(self, name, counts)

    def op(self, name: str, **counts):
        """Root span of one operation; spans opened inside share its id."""
        if not self.enabled:
            return _NULL
        self.op_id = self._next_op
        self._next_op += 1
        return self.span(name, **counts)

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of spans called `name`, optionally only below a root
        span whose name starts with `under`."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            if under is not None and not self._root(span).name.startswith(under):
                continue
            out.append(span.duration)
        return out

    def _root(self, span: Span) -> Span:
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def self_time_by_layer(self) -> dict[str, float]:
        """Each span's duration minus its children's, summed per layer.

        Spans on one thread nest without overlap, so the children of a
        span cover exactly the sum of their durations.
        """
        child = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.duration
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.layer] += span.duration - child[span.sid]
        return dict(totals)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        records = [
            {
                "id": s.sid,
                "name": s.name,
                "parent": s.parent,
                "op": s.op,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        path.write_text(json.dumps({"meta": meta, "spans": records}) + "\n")
