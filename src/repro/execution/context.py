"""Execution context: parameter bindings and instrumentation counters.

Two kinds of parameters flow through plan execution:

* **scalar parameters** — bound per outer row by a correlated
  :class:`~repro.execution.apply.PApply`; read by compiled
  :class:`~repro.algebra.expressions.Parameter` expressions;
* **relation-valued parameters** — the paper's ``$group``: a whole multiset
  of tuples bound per group by :class:`~repro.execution.gapply.PGApply` and
  read by the per-group plan's GroupScan leaf.

Contexts are immutable-ish: binding produces a child context sharing the
same :class:`Counters`, so nested Apply/GApply levels never clobber each
other's bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ExecutionError
from repro.storage.table import Row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.governor import Governor
    from repro.execution.vector.segmented import Wave
    from repro.observe.metrics import MetricsRegistry
    from repro.observe.trace import Tracer


@dataclass
class Counters:
    """Deterministic work counters, shared across one plan execution.

    Wall-clock time in a Python engine is noisy at small scales; these
    counters provide a stable cost proxy that benchmarks report alongside
    elapsed time. ``rows`` counts every tuple emitted by any operator;
    the named counters break work down by operator family.
    """

    rows: int = 0
    table_scan_rows: int = 0
    group_scan_rows: int = 0
    join_probes: int = 0
    hash_inserts: int = 0
    comparisons: int = 0
    inner_executions: int = 0  # per-row Apply inner plan runs
    group_executions: int = 0  # per-group PGQ runs
    groups_partitioned: int = 0
    peak_partition_rows: int = 0
    buffered_cells: int = 0  # cells (rows x width) written to partition/sort/distinct buffers
    spill_runs: int = 0      # partition-phase flushes to disk
    spilled_rows: int = 0    # rows written to spill run files
    spill_bytes: int = 0     # encoded bytes written to spill run files

    def snapshot(self) -> dict[str, int]:
        return {
            name: getattr(self, name)
            for name in (
                "rows",
                "table_scan_rows",
                "group_scan_rows",
                "join_probes",
                "hash_inserts",
                "comparisons",
                "inner_executions",
                "group_executions",
                "groups_partitioned",
                "peak_partition_rows",
                "buffered_cells",
                "spill_runs",
                "spilled_rows",
                "spill_bytes",
            )
        }

    @property
    def total_work(self) -> int:
        """Single scalar summary used by benchmark tables."""
        return (
            self.rows
            + self.join_probes
            + self.hash_inserts
            + self.comparisons
            + self.inner_executions
            + self.group_executions
            + self.buffered_cells // 4
        )


@dataclass
class ExecutionContext:
    """Runtime state threaded through physical operators.

    ``metrics``/``tracer`` are the opt-in observability hooks
    (:mod:`repro.observe`): both default to None, and the executor's hot
    path touches neither unless they are set — plain execution allocates
    no observe objects at all (guarded by a tier-1 test).
    """

    counters: Counters = field(default_factory=Counters)
    scalars: Mapping[str, Any] = field(default_factory=dict)
    relations: Mapping[str, Sequence[Row]] = field(default_factory=dict)
    metrics: "MetricsRegistry | None" = None
    tracer: "Tracer | None" = None
    #: The query's resource governor (:mod:`repro.execution.governor`);
    #: None means ungoverned execution with zero per-row overhead.
    governor: "Governor | None" = None
    #: The GApply groups a segmented per-group plan runs over, and which
    #: of them this execution runs (:mod:`repro.execution.vector.
    #: segmented`); None everywhere else.
    wave: "Wave | None" = None

    def scalar(self, name: str) -> Any:
        try:
            return self.scalars[name]
        except KeyError:
            raise ExecutionError(
                f"unbound scalar parameter {name!r}; bound: "
                + ", ".join(sorted(self.scalars))
            ) from None

    def relation(self, name: str) -> Sequence[Row]:
        try:
            return self.relations[name]
        except KeyError:
            raise ExecutionError(
                f"unbound relation parameter {name!r}; bound: "
                + ", ".join(sorted(self.relations))
            ) from None

    def with_scalars(self, updates: Mapping[str, Any]) -> "ExecutionContext":
        merged = dict(self.scalars)
        merged.update(updates)
        return ExecutionContext(
            self.counters, merged, self.relations, self.metrics, self.tracer,
            self.governor,
        )

    def with_relation(
        self, name: str, rows: Sequence[Row]
    ) -> "ExecutionContext":
        merged = dict(self.relations)
        merged[name] = rows
        return ExecutionContext(
            self.counters, self.scalars, merged, self.metrics, self.tracer,
            self.governor,
        )
