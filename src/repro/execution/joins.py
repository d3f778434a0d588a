"""Join physical operators: hash equijoin and nested-loop join.

The planner prefers :class:`PHashJoin` whenever the join predicate contains
at least one equality conjunct between the two sides; residual (non-equi)
conjuncts are evaluated against the combined row. :class:`PNestedLoopJoin`
handles cross joins and pure theta joins.

Both are inner joins unless ``kind`` says otherwise; SEMI/ANTI support the
binder's EXISTS/IN decorrelation and the optimizer's group-selection rule.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.algebra.expressions import Expression
from repro.algebra.operators import JoinKind
from repro.errors import PlanError
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.storage.table import Row
from repro.storage.types import key_function


class PNestedLoopJoin(PhysicalOperator):
    """Materialize the right side; loop left x right with a predicate."""

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        predicate: Expression | None = None,
        kind: str = JoinKind.INNER,
    ):
        if kind not in (JoinKind.INNER, JoinKind.CROSS, JoinKind.SEMI, JoinKind.ANTI):
            raise PlanError(f"PNestedLoopJoin does not support kind {kind!r}")
        self.left = left
        self.right = right
        self.predicate = predicate
        self.kind = kind
        combined = left.schema.concat(right.schema)
        self.schema = left.schema if kind in (JoinKind.SEMI, JoinKind.ANTI) else combined
        self._evaluate = (
            None if predicate is None else predicate.compile(combined)
        )

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        counters = ctx.counters
        right_rows = list(self.right.execute(ctx))
        evaluate = self._evaluate
        semi = self.kind == JoinKind.SEMI
        anti = self.kind == JoinKind.ANTI
        for left_row in self.left.execute(ctx):
            matched = False
            for right_row in right_rows:
                counters.join_probes += 1
                combined = left_row + right_row
                if evaluate is None or evaluate(combined, ctx) is True:
                    matched = True
                    if semi or anti:
                        break
                    counters.rows += 1
                    yield combined
            if semi and matched:
                counters.rows += 1
                yield left_row
            elif anti and not matched:
                counters.rows += 1
                yield left_row

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        predicate = "" if self.predicate is None else f"[{self.predicate}]"
        return f"NestedLoopJoin:{self.kind}{predicate}"


class PHashJoin(PhysicalOperator):
    """Build a hash table on the right side keys; probe with left rows.

    ``left_keys``/``right_keys`` are column references into the respective
    child schemas. ``residual`` is an optional extra predicate evaluated on
    the combined row (it covers non-equi conjuncts of the join condition).

    NULL join keys never match (SQL equality semantics), so rows with a NULL
    key are skipped on both sides.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Expression | None = None,
        kind: str = JoinKind.INNER,
        build_left: bool = False,
    ):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("hash join requires matching, non-empty key lists")
        if kind not in (JoinKind.INNER, JoinKind.SEMI, JoinKind.ANTI):
            raise PlanError(f"PHashJoin does not support kind {kind!r}")
        if build_left and kind != JoinKind.INNER:
            raise PlanError("build_left is only supported for inner joins")
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.kind = kind
        self.build_left = build_left
        combined = left.schema.concat(right.schema)
        self.schema = left.schema if kind in (JoinKind.SEMI, JoinKind.ANTI) else combined
        self._left_positions = left.schema.indices_of(left_keys)
        self._right_positions = right.schema.indices_of(right_keys)
        # Each side keys by its own types: equal values share a key.
        self._left_key = key_function(left.schema.types(self._left_positions))
        self._right_key = key_function(right.schema.types(self._right_positions))
        self._evaluate_residual = (
            None if residual is None else residual.compile(combined)
        )

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        if self.build_left:
            yield from self._execute_build_left(ctx)
            return
        counters = ctx.counters
        buckets: dict[tuple, list[Row]] = {}
        build_width = len(self.right.schema)
        for row in self.right.execute(ctx):
            values = tuple(row[i] for i in self._right_positions)
            if any(v is None for v in values):
                continue
            counters.hash_inserts += 1
            counters.buffered_cells += build_width
            buckets.setdefault(self._right_key(values), []).append(row)

        residual = self._evaluate_residual
        semi = self.kind == JoinKind.SEMI
        anti = self.kind == JoinKind.ANTI
        for left_row in self.left.execute(ctx):
            values = tuple(left_row[i] for i in self._left_positions)
            if any(v is None for v in values):
                if anti:
                    counters.rows += 1
                    yield left_row
                continue
            counters.join_probes += 1
            matches = buckets.get(self._left_key(values), ())
            matched = False
            for right_row in matches:
                combined = left_row + right_row
                if residual is None or residual(combined, ctx) is True:
                    matched = True
                    if semi or anti:
                        break
                    counters.rows += 1
                    yield combined
            if semi and matched:
                counters.rows += 1
                yield left_row
            elif anti and not matched:
                counters.rows += 1
                yield left_row

    def _execute_build_left(self, ctx: ExecutionContext) -> Iterator[Row]:
        """Inner join building the hash table on the (smaller) left input;
        output column order is unchanged (left ++ right)."""
        counters = ctx.counters
        buckets: dict[tuple, list[Row]] = {}
        build_width = len(self.left.schema)
        for row in self.left.execute(ctx):
            values = tuple(row[i] for i in self._left_positions)
            if any(v is None for v in values):
                continue
            counters.hash_inserts += 1
            counters.buffered_cells += build_width
            buckets.setdefault(self._left_key(values), []).append(row)
        residual = self._evaluate_residual
        for right_row in self.right.execute(ctx):
            values = tuple(right_row[i] for i in self._right_positions)
            if any(v is None for v in values):
                continue
            counters.join_probes += 1
            for left_row in buckets.get(self._right_key(values), ()):
                combined = left_row + right_row
                if residual is None or residual(combined, ctx) is True:
                    counters.rows += 1
                    yield combined

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(
            f"{lk}={rk}" for lk, rk in zip(self.left_keys, self.right_keys)
        )
        residual = "" if self.residual is None else f" AND {self.residual}"
        return f"HashJoin:{self.kind}[{keys}{residual}]"
