"""Lightweight tracing spans: plan → operator → group granularity.

A :class:`Tracer` collects a flat list of :class:`Span` records linked by
parent ids — cheap to record (one append per span), trivially
JSON-exportable, and reconstructable into a tree offline. Three kinds are
emitted by the engine:

* ``plan`` — one span around a whole plan execution (opened by
  :meth:`repro.api.Database.execute` when tracing is requested);
* ``operator`` — one span per operator *execution* (a per-group plan's
  operators open one span per group), recorded by the metrics registry's
  instrumented driver;
* ``group`` — one span per GApply group in the execution phase,
  attributed with the grouping-key values and the rows emitted.

Tracing shares the registry's injectable clock discipline
(:mod:`repro.observe.metrics`). A ``max_spans`` cap bounds memory on
pathological plans; the ``dropped`` count reports what the cap cost.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

DEFAULT_MAX_SPANS = 20_000


@dataclass
class Span:
    """One traced interval; ``end_ns`` is None while the span is open."""

    span_id: int
    parent_id: int | None
    kind: str  # "plan" | "operator" | "group"
    name: str
    start_ns: int
    end_ns: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int | None:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "duration_ns": self.duration_ns,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Span collector with an explicit parent stack.

    ``begin`` returns the span id; ``end`` closes it (and pops it off the
    parent stack if it is the innermost open span). Spans beyond
    ``max_spans`` are counted as dropped rather than recorded.

    A tracer belongs to one query, but its span list and parent stack are
    mutated under a lock anyway: recording a span is already an
    allocation, so the lock costs little, and it keeps the tracer safe
    when another thread reads or exports it while the query still runs.
    """

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        max_spans: int = DEFAULT_MAX_SPANS,
    ):
        self.clock = clock
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._open: list[int] = []
        self._next_id = 0
        self._lock = threading.Lock()

    def begin(self, kind: str, name: str, **attrs: Any) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return span_id
            parent = self._open[-1] if self._open else None
            self.spans.append(
                Span(span_id, parent, kind, name, self.clock(), attrs=attrs)
            )
            self._open.append(span_id)
            return span_id

    def end(self, span_id: int, **attrs: Any) -> None:
        with self._lock:
            if self._open and self._open[-1] == span_id:
                self._open.pop()
            for span in reversed(self.spans):
                if span.span_id == span_id:
                    span.end_ns = self.clock()
                    span.attrs.update(attrs)
                    return
            # A dropped span: nothing recorded to close.

    def to_json(self) -> dict:
        return {
            "spans": [span.to_dict() for span in self.spans],
            "dropped": self.dropped,
        }

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)
