"""Physical operator protocol.

Physical operators follow the Volcano iterator model: ``execute(ctx)``
returns a fresh iterator over output rows. Plans are built once (expressions
compiled to closures against child schemas at construction) and can be
re-executed many times — GApply re-runs its per-group plan once per group,
and Apply re-runs its inner plan once per outer row, so cheap re-execution
is a load-bearing property here.

What makes that safe: all per-execution state lives in the generator
frame (or the context), never on ``self``, so a second ``execute`` on the
same operator instance starts clean whether or not the first iterator was
drained.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.execution.context import ExecutionContext
from repro.storage.schema import Schema
from repro.storage.table import Row, Table


class PhysicalOperator:
    """Base class; subclasses set ``schema`` and implement ``_execute``.

    ``execute`` is the public entry point: it dispatches straight to the
    subclass ``_execute`` when no metrics registry is attached (one ``is``
    check, no allocation), or through the registry's instrumented driver
    when one is. Operator code and tests may keep calling ``execute``
    exactly as before.
    """

    schema: Schema

    #: Cost-model row estimate for the logical source of this node, stamped
    #: by the planner when it lowers for an EXPLAIN; rendered against
    #: actual cardinalities under ANALYZE. None = not estimated.
    est_rows: float | None = None

    def execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        if ctx.metrics is None:
            iterator = self._execute(ctx)
        else:
            iterator = ctx.metrics.drive(self, ctx)
        if ctx.governor is None:
            return iterator
        return _governed(iterator, ctx.governor)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        raise NotImplementedError

    def children(self) -> tuple["PhysicalOperator", ...]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        lines = [pad + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


def _governed(iterator: Iterator[Row], governor) -> Iterator[Row]:
    """Wrap an operator's row stream with the governor's stride check.

    Every operator in a governed plan passes its rows through one of
    these, so a timeout or cancellation is observed within one stride of
    rows at *some* level of the plan — including inside blocking
    operators, whose children are wrapped too.
    """
    governor.check()
    tick = governor.tick
    for row in iterator:
        tick()
        yield row


def run_plan(
    plan: PhysicalOperator, ctx: ExecutionContext | None = None
) -> list[Row]:
    """Execute a plan to completion, returning the materialized result."""
    if ctx is None:
        ctx = ExecutionContext()
    return list(plan.execute(ctx))


def run_plan_to_table(
    plan: PhysicalOperator, name: str = "result", ctx: ExecutionContext | None = None
) -> Table:
    """Execute a plan and wrap the result in a :class:`Table`."""
    table = Table(name, plan.schema)
    table.rows = run_plan(plan, ctx)
    return table


class PMaterialized(PhysicalOperator):
    """A physical leaf over an in-memory row list (testing / temp results)."""

    def __init__(self, schema: Schema, rows: Sequence[Row]):
        self.schema = schema
        self._rows = list(rows)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        counters = ctx.counters
        for row in self._rows:
            counters.rows += 1
            yield row

    def label(self) -> str:
        return f"Materialized({len(self._rows)} rows)"
