"""Spans recorded around the calls the benchmark makes into each layer.

Nothing inside ``src/repro`` is instrumented: a span brackets one call of
a layer's public function from the benchmark's side. Spans stay in memory
and are written out once, when the traced run ends. A span's *self time*
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    request_id: int
    #: Index (in ``Tracer.spans``) of the span that caused this one.
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _OpenSpan:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.span)
        self.span.start = perf_counter()
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.span.end = perf_counter()
        self.tracer._open.pop()


class Tracer:
    """Records spans for one traced run; single-threaded by design."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        #: Set by the runner before each request; every span of the
        #: request carries it.
        self.request_id = -1

    def span(self, name: str) -> _OpenSpan:
        parent = self._open[-1] if self._open else None
        return _OpenSpan(self, Span(name, self.request_id, parent))

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def by_request(self, name: str) -> dict[int, float]:
        """request id -> summed duration of that request's ``name`` spans."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                totals[s.request_id] = totals.get(s.request_id, 0.0) + s.duration
        return totals

    def children_by_request(self, name: str) -> dict[int, float]:
        """request id -> summed duration of the direct children of that
        request's ``name`` spans (span minus this = its self time)."""
        owner = {
            index: s.request_id
            for index, s in enumerate(self.spans)
            if s.name == name
        }
        totals = {request_id: 0.0 for request_id in owner.values()}
        for s in self.spans:
            if s.parent in owner:
                totals[owner[s.parent]] += s.duration
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
