"""Per-operator metrics: the registry behind EXPLAIN ANALYZE.

A :class:`MetricsRegistry` maps every node of one physical plan to an
:class:`OperatorMetrics` record, keyed by the node's *tree path* — ``""``
for the root, ``"0"`` / ``"1"`` for its children, ``"1.0"`` for the first
child of the second child, and so on. Paths are derived purely from the
plan structure, so two walks over equal-shaped plans produce the same
keys — which is what lets the equivalence tests compare snapshots of the
same plan run as compiled batch nodes and as row iterators.

Timing uses an injectable monotonic clock (``perf_counter_ns`` by
default); tests inject a fake clock to make ``elapsed_ns`` deterministic.
Because wall-clock is noisy, :meth:`MetricsRegistry.snapshot` *excludes*
elapsed time by default — equivalence tests compare the deterministic
counters only, and the EXPLAIN ANALYZE renderer asks for time explicitly.

Nothing in this module is imported on the executor's default path: the
base :class:`~repro.execution.base.PhysicalOperator` only calls in here
when a registry is attached to the execution context.

**Concurrency.** Registries and tracers are *per-query* objects — the
:class:`~repro.api.Database` facade builds a fresh one per execution, so
two threads sharing a Database never share a registry's hot path. The
structural mutation that *can* race (ad-hoc self-registration via
:meth:`MetricsRegistry.record_for`) is guarded by a lock; the
per-``next()`` counter updates stay lock-free because only the single
thread driving a plan touches them. For state that genuinely is shared
across queries — service health counters, test probes — use
:class:`LockedCounters`.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.execution.base import PhysicalOperator
    from repro.execution.context import ExecutionContext

#: Deterministic work counters carried by every record.
COUNTER_FIELDS = (
    "executions",
    "rows_out",
    "comparisons",
    "index_probes",
    "groups_formed",
    "empty_groups_skipped",
    "partition_rows",
    "spill_runs",
    "spilled_rows",
    "spill_bytes",
)


def join_path(prefix: str, relative: str) -> str:
    """Join registry tree paths (either side may be the root ``""``)."""
    if not relative:
        return prefix
    if not prefix:
        return relative
    return f"{prefix}.{relative}"


class OperatorMetrics:
    """Counters and cumulative time for one physical operator.

    ``rows_out`` counts every row the operator emitted (summed over all of
    its executions — a per-group plan's operators execute once per group).
    ``elapsed_ns`` is *inclusive* time: the operator plus everything below
    it, measured around each ``next()`` on the operator's iterator so time
    spent in consumers upstream is excluded.
    """

    __slots__ = ("path", "label") + COUNTER_FIELDS + ("elapsed_ns",)

    def __init__(self, path: str, label: str):
        self.path = path
        self.label = label
        for name in COUNTER_FIELDS:
            setattr(self, name, 0)
        self.elapsed_ns = 0

    def counters(self, include_time: bool = False) -> dict[str, int]:
        data = {name: getattr(self, name) for name in COUNTER_FIELDS}
        if include_time:
            data["elapsed_ns"] = self.elapsed_ns
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={getattr(self, name)}"
            for name in COUNTER_FIELDS
            if getattr(self, name)
        )
        return f"OperatorMetrics({self.path!r}, {self.label!r}, {inner})"


class MetricsRegistry:
    """Per-operator metrics for one (or several) plan executions.

    Usage::

        registry = MetricsRegistry()
        registry.register_plan(physical)
        ctx = ExecutionContext(metrics=registry)
        rows = run_plan(physical, ctx)
        registry.snapshot()   # {path: {"op": label, counter: value, ...}}

    The registry accumulates across executions of the same plan; use a
    fresh registry per measured run.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._by_id: dict[int, OperatorMetrics] = {}
        self._by_path: dict[str, OperatorMetrics] = {}
        self._unregistered = 0
        #: Guards structural mutation (registration).
        #: Counter increments on existing records are intentionally
        #: lock-free: one registry belongs to one query's driving thread.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration and lookup
    # ------------------------------------------------------------------

    def register_plan(self, root: "PhysicalOperator", prefix: str = "") -> None:
        """Walk ``root`` and create one record per node, keyed by path."""
        self._record_at(prefix, root.label(), node=root)
        for index, child in enumerate(root.children()):
            self.register_plan(child, join_path(prefix, str(index)))

    def _record_at(
        self, path: str, label: str, node: "PhysicalOperator | None" = None
    ) -> OperatorMetrics:
        with self._lock:
            record = self._by_path.get(path)
            if record is None:
                record = OperatorMetrics(path, label)
                self._by_path[path] = record
            if node is not None:
                self._by_id[id(node)] = record
            return record

    def record_for(self, op: "PhysicalOperator") -> OperatorMetrics:
        """The record for ``op``; unknown plans self-register on first use
        under a ``?N`` prefix (so ad-hoc plans still get metrics, with
        paths that cannot collide with a registered tree)."""
        record = self._by_id.get(id(op))
        if record is None:
            with self._lock:
                self._unregistered += 1
                prefix = f"?{self._unregistered - 1}"
            self.register_plan(op, prefix)
            record = self._by_id[id(op)]
        return record

    def records(self) -> list[OperatorMetrics]:
        return [self._by_path[path] for path in sorted(self._by_path)]

    def total(self, field: str) -> int:
        """Sum one counter over every operator (e.g. ``partition_rows``)."""
        return sum(getattr(record, field) for record in self._by_path.values())

    def by_label(self, label_prefix: str) -> list[OperatorMetrics]:
        """Records whose operator label starts with ``label_prefix``
        (e.g. ``"GApply"``), in path order."""
        return [r for r in self.records() if r.label.startswith(label_prefix)]

    # ------------------------------------------------------------------
    # Instrumented execution (called by PhysicalOperator.execute)
    # ------------------------------------------------------------------

    def drive(self, op: "PhysicalOperator", ctx: "ExecutionContext") -> Iterator:
        """Run ``op._execute(ctx)`` counting rows and inclusive time.

        The clock brackets each ``next()`` call so the measured time covers
        the operator and its subtree but not the consumer above it.
        """
        record = self.record_for(op)
        record.executions += 1
        tracer = ctx.tracer
        span = (
            None
            if tracer is None
            else tracer.begin("operator", op.label(), path=record.path)
        )
        clock = self.clock
        iterator = op._execute(ctx)
        rows = 0
        elapsed = 0
        try:
            while True:
                start = clock()
                try:
                    row = next(iterator)
                except StopIteration:
                    elapsed += clock() - start
                    break
                elapsed += clock() - start
                rows += 1
                yield row
        finally:
            record.rows_out += rows
            record.elapsed_ns += elapsed
            if span is not None:
                tracer.end(span, rows_out=rows)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def snapshot(self, include_time: bool = False) -> dict[str, dict]:
        """Plain-dict view, path-sorted: ``{path: {"op": label, ...}}``.

        Excludes ``elapsed_ns`` unless asked: the deterministic counters
        are the equivalence contract between the compiled plan and the
        row-iterator reference; time is reporting-only.
        """
        return {
            path: {"op": self._by_path[path].label,
                   **self._by_path[path].counters(include_time)}
            for path in sorted(self._by_path)
        }

    def to_json(self) -> dict:
        """The JSON trace document: every record, with time included."""
        return {
            "operators": [
                {"path": record.path, "op": record.label,
                 **record.counters(include_time=True)}
                for record in self.records()
            ]
        }


class LockedCounters:
    """Named integer counters safe to bump from any number of threads.

    The building block for state genuinely shared across concurrent
    queries — the query service's health/stats snapshot
    (:meth:`repro.serve.Service.stats`) is built on one. ``snapshot``
    returns a point-in-time copy taken under the lock, so a reader never
    sees a torn multi-counter update made through :meth:`add_many`.
    """

    def __init__(self, **initial: int):
        self._lock = threading.Lock()
        self._values: dict[str, int] = dict(initial)

    def inc(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` (may be negative); returns the new value."""
        with self._lock:
            value = self._values.get(name, 0) + amount
            self._values[name] = value
            return value

    def add_many(self, **amounts: int) -> None:
        """Apply several increments as one atomic update."""
        with self._lock:
            for name, amount in amounts.items():
                self._values[name] = self._values.get(name, 0) + amount

    def get(self, name: str) -> int:
        with self._lock:
            return self._values.get(name, 0)

    def max_of(self, name: str, candidate: int) -> int:
        """Raise ``name`` to ``candidate`` if larger (peak tracking)."""
        with self._lock:
            value = max(self._values.get(name, 0), candidate)
            self._values[name] = value
            return value

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self._values)
