"""The hash join, the one in-memory join algorithm.

The planner lowers every join that does not look up an index to
:class:`PHashJoin`, keyed on the equality conjuncts between the two sides;
the other conjuncts are a residual evaluated against the combined row. A
cross or theta join has no equality conjunct and hashes on the empty key:
one bucket holds the whole build side, every probe row is matched against
it, and the residual (if any) filters the candidates — a block
nested-loop join.

Joins are inner unless ``kind`` says otherwise; SEMI/ANTI support the
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


class PHashJoin(PhysicalOperator):
    """Build a hash table on the right side's keys (the left's with
    ``build_left``, inner joins only); probe with the other side's rows.

    ``left_keys``/``right_keys`` are column references into the respective
    child schemas; both empty is a cross or theta join (every row shares
    the empty key). ``residual`` is an optional extra predicate evaluated
    on the combined row (it covers non-equi conjuncts of the join
    condition).

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
        if len(left_keys) != len(right_keys):
            raise PlanError("hash join requires key lists of equal length")
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
        # ``build_left`` (inner joins only) swaps the sides' roles, not the
        # output's column order (left ++ right).
        sides = [
            (self.right, self._right_positions, self._right_key),
            (self.left, self._left_positions, self._left_key),
        ]
        if self.build_left:
            sides.reverse()
        (build, build_positions, build_key), (probe, probe_positions, probe_key) = sides
        counters = ctx.counters
        buckets: dict[tuple, list[Row]] = {}
        build_width = len(build.schema)
        for row in build.execute(ctx):
            values = tuple(row[i] for i in build_positions)
            if any(v is None for v in values):
                continue
            counters.hash_inserts += 1
            counters.buffered_cells += build_width
            buckets.setdefault(build_key(values), []).append(row)

        residual = self._evaluate_residual
        build_left = self.build_left
        semi = self.kind == JoinKind.SEMI
        anti = self.kind == JoinKind.ANTI
        for probe_row in probe.execute(ctx):
            values = tuple(probe_row[i] for i in probe_positions)
            if any(v is None for v in values):
                if anti:
                    counters.rows += 1
                    yield probe_row
                continue
            counters.join_probes += 1
            matched = False
            for build_row in buckets.get(probe_key(values), ()):
                if build_left:
                    combined = build_row + probe_row
                else:
                    combined = probe_row + build_row
                if residual is None or residual(combined, ctx) is True:
                    matched = True
                    if semi or anti:
                        break
                    counters.rows += 1
                    yield combined
            if semi and matched:
                counters.rows += 1
                yield probe_row
            elif anti and not matched:
                counters.rows += 1
                yield probe_row

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(
            f"{lk}={rk}" for lk, rk in zip(self.left_keys, self.right_keys)
        )
        residual = "" if self.residual is None else str(self.residual)
        condition = " AND ".join(part for part in (keys, residual) if part)
        return f"HashJoin:{self.kind}[{condition}]"
