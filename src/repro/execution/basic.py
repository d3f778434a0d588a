"""Row-at-a-time physical operators: filter, project, distinct, sort, union.

All expressions are compiled to closures at construction time; ``execute``
only runs the closures.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import operator

from repro.algebra.expressions import Expression
from repro.errors import PlanError
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.storage.schema import Column, Schema
from repro.storage.spill import RunWriter
from repro.storage.table import Row
from repro.storage.types import key_function, raw_keys, value_key


class _Descending:
    """Inverts comparisons for one element of a composite sort key.

    A single stable ascending sort — and, crucially, ``heapq.merge``
    during spill-run merging, which takes exactly one key function —
    can then express per-column DESC. Ties compare equal so stability
    is preserved, which keeps the spilled sort byte-identical to the
    in-memory right-to-left multi-pass sort.
    """

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other):
        return other.key < self.key

    def __eq__(self, other):
        return other.key == self.key

    def __hash__(self):
        return hash(self.key)


class PFilter(PhysicalOperator):
    """Keep rows where the predicate evaluates to TRUE (not NULL)."""

    def __init__(self, child: PhysicalOperator, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self._evaluate = predicate.compile(child.schema)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        evaluate = self._evaluate
        counters = ctx.counters
        record = None if ctx.metrics is None else ctx.metrics.record_for(self)
        for row in self.child.execute(ctx):
            counters.comparisons += 1
            if record is not None:
                record.comparisons += 1
            if evaluate(row, ctx) is True:
                counters.rows += 1
                yield row

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter[{self.predicate}]"


class PProject(PhysicalOperator):
    """Evaluate a list of expressions per row (no duplicate elimination)."""

    def __init__(
        self,
        child: PhysicalOperator,
        items: Sequence[tuple[Expression, str]],
    ):
        self.child = child
        self.items = tuple(items)
        self.schema = Schema(
            Column(name, expr.infer(child.schema)) for expr, name in self.items
        )
        self._evaluators = [expr.compile(child.schema) for expr, _ in self.items]

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        evaluators = self._evaluators
        counters = ctx.counters
        for row in self.child.execute(ctx):
            counters.rows += 1
            yield tuple(evaluate(row, ctx) for evaluate in evaluators)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        inner = ", ".join(name for _, name in self.items)
        return f"Project[{inner}]"


class PPrune(PhysicalOperator):
    """Positional column pruning preserving the original Column metadata."""

    def __init__(self, child: PhysicalOperator, references: Sequence[str]):
        self.child = child
        self.references = tuple(references)
        self._positions = child.schema.indices_of(references)
        self.schema = child.schema.project(references)
        self._getter = self._make_getter(self._positions)

    @staticmethod
    def _make_getter(positions):
        if len(positions) == 1:
            position = positions[0]
            return lambda row: (row[position],)
        return operator.itemgetter(*positions)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        getter = self._getter
        counters = ctx.counters
        for row in self.child.execute(ctx):
            counters.rows += 1
            yield getter(row)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Prune[{', '.join(self.references)}]"


class PDistinct(PhysicalOperator):
    """Duplicate elimination over whole rows.

    Streaming hash dedup by default; under a governor memory budget it
    switches to a two-phase external algorithm (sort-by-key dedup, then
    sort-by-arrival) that emits exactly the streaming path's rows in
    exactly its first-appearance order while holding only a bounded
    buffer resident (DESIGN.md §10.2).
    """

    def __init__(self, child: PhysicalOperator):
        self.child = child
        self.schema = child.schema
        dtypes = child.schema.types(range(len(child.schema)))
        self._key = key_function(dtypes)
        self._raw = raw_keys(dtypes)  # rows are their own keys

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        counters = ctx.counters
        governor = ctx.governor
        threshold = None if governor is None else governor.spill_threshold()
        if threshold is not None:
            yield from self.external_distinct(
                self.child.execute(ctx), ctx, threshold
            )
            return
        seen: set[tuple] = set()
        width = len(self.schema)
        key_of = self._key
        raw = self._raw
        try:
            for row in self.child.execute(ctx):
                key = row if raw else key_of(row)
                counters.hash_inserts += 1
                if key in seen:
                    continue
                seen.add(key)
                counters.buffered_cells += width
                if governor is not None:
                    governor.charge_cells(width)
                counters.rows += 1
                yield row
        finally:
            if governor is not None:
                governor.release_cells(len(seen) * width)

    def external_distinct(
        self, rows: Iterable[Row], ctx: ExecutionContext, threshold: int
    ) -> Iterator[Row]:
        """External distinct over ``rows``, preserving first-appearance
        order; both engines' budgeted DISTINCT (the vector node passes its
        child's batches flattened).

        Phase 1 buffers ``(seq, row)`` pairs and spills runs sorted by
        the row's grouping key; the stable merge makes the first item of
        every equal-key cluster the one with the globally smallest
        arrival ``seq``, so dropping the rest keeps exactly the row the
        streaming path would have emitted. Phase 2 external-sorts the
        survivors back into ``seq`` order. Phase 1's resident tail feeds
        the merge while phase 2 accumulates, so each phase flushes at
        half the threshold to stay inside the shared budget.
        """
        counters = ctx.counters
        width = max(1, len(self.schema))
        half = max(width, threshold // 2)
        row_key = self._key
        key_of = lambda item: row_key(item[1])  # noqa: E731
        seq_of = operator.itemgetter(0)
        with RunWriter(ctx, self, key_of, half) as by_key, RunWriter(
            ctx, self, seq_of, half
        ) as by_arrival:
            for item in enumerate(rows):
                counters.hash_inserts += 1
                by_key.add(item, width)
            previous: object = object()  # never equals a grouping key
            for item in by_key.merged():
                key = key_of(item)
                if key == previous:
                    continue
                previous = key
                by_arrival.add(item, width)
            # Phase 1 is fully consumed: free its tail before emitting.
            by_key.close()
            for _seq, row in by_arrival.merged():
                counters.rows += 1
                yield row

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)


class PSort(PhysicalOperator):
    """Sort; NULLS FIRST, stable, per-column asc/desc.

    Fully in-memory by default; under a governor memory budget it runs
    the external merge sort, :class:`~repro.storage.spill.RunWriter`
    (DESIGN.md §10.2). The spilled output is byte-identical to the
    in-memory path: the composite key below is the single-pass
    equivalent of the stable right-to-left multi-pass sort, and the
    writer's stable merge reproduces arrival-order ties exactly.
    """

    def __init__(
        self, child: PhysicalOperator, items: Sequence[tuple[str, bool]]
    ):
        self.child = child
        self.items = tuple(items)
        self.schema = child.schema
        #: (position, ascending, the column's key, raw-keyed)
        self._positions = []
        for reference, ascending in self.items:
            position = child.schema.index_of(reference)
            dtype = child.schema[position].dtype
            self._positions.append(
                (position, ascending, value_key(dtype), raw_keys([dtype]))
            )

    def _composite_key(self, row: Row) -> tuple:
        parts = []
        for position, ascending, key, _ in self._positions:
            part = key(row[position])
            parts.append(part if ascending else _Descending(part))
        return tuple(parts)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        return self.sort(self.child.execute(ctx), ctx)

    def sort(self, rows: Iterable[Row], ctx: ExecutionContext) -> Iterator[Row]:
        """``rows`` in sort order: both engines' ORDER BY (the vector
        breaker passes its child's batches flattened). In memory, or —
        under a governor memory budget — the external merge sort."""
        counters = ctx.counters
        governor = ctx.governor
        threshold = None if governor is None else governor.spill_threshold()
        if threshold is not None:
            width = max(1, len(self.schema))
            with RunWriter(ctx, self, self._composite_key, threshold) as writer:
                for row in rows:
                    writer.add(row, width)
                for row in writer.merged():
                    counters.rows += 1
                    yield row
            return
        rows = list(rows)
        cells = len(rows) * len(self.schema)
        counters.buffered_cells += cells
        try:
            if governor is not None:
                governor.charge_cells(cells)
            # Stable multi-key sort: apply keys right-to-left.
            for position, ascending, key, raw in reversed(self._positions):
                # A raw-keyed column with no NULLs sorts by its bare values.
                if raw and not any(row[position] is None for row in rows):
                    order = operator.itemgetter(position)
                else:
                    order = lambda row: key(row[position])  # noqa: E731
                rows.sort(key=order, reverse=not ascending)
            counters.comparisons += len(rows)
            for row in rows:
                counters.rows += 1
                yield row
        finally:
            if governor is not None:
                governor.release_cells(cells)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        inner = ", ".join(
            f"{ref}{'' if asc else ' DESC'}" for ref, asc in self.items
        )
        return f"Sort[{inner}]"


class PUnionAll(PhysicalOperator):
    """Concatenate children outputs (bag union)."""

    def __init__(self, inputs: Sequence[PhysicalOperator]):
        if not inputs:
            raise PlanError("PUnionAll requires at least one input")
        self.inputs = tuple(inputs)
        self.schema = Schema(
            Column(c.name, c.dtype) for c in self.inputs[0].schema
        )

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        counters = ctx.counters
        for child in self.inputs:
            for row in child.execute(ctx):
                counters.rows += 1
                yield row

    def children(self) -> tuple[PhysicalOperator, ...]:
        return self.inputs


class PRemap(PhysicalOperator):
    """Positional passthrough with explicit output column identities."""

    def __init__(
        self,
        child: PhysicalOperator,
        items: Sequence[tuple[str, Column]],
    ):
        self.child = child
        self.items = tuple(items)
        self._positions = [child.schema.index_of(ref) for ref, _ in self.items]
        columns = []
        for (reference, column), position in zip(self.items, self._positions):
            source = child.schema[position]
            columns.append(
                Column(
                    column.name,
                    source.dtype,
                    column.qualifier,
                    column.nullable or source.nullable,
                )
            )
        self.schema = Schema(columns)
        self._getter = PPrune._make_getter(self._positions)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        getter = self._getter
        counters = ctx.counters
        for row in self.child.execute(ctx):
            counters.rows += 1
            yield getter(row)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)


class PAlias(PhysicalOperator):
    """Identity on rows; re-qualifies the output schema (derived-table AS)."""

    def __init__(self, child: PhysicalOperator, name: str):
        self.child = child
        self.name = name
        self.schema = child.schema.qualify(name)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        return self.child.execute(ctx)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Alias({self.name})"


class PLimit(PhysicalOperator):
    """Emit at most ``limit`` rows (used by examples and the tagger demos)."""

    def __init__(self, child: PhysicalOperator, limit: int):
        self.child = child
        self.limit = limit
        self.schema = child.schema

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        if self.limit <= 0:
            return
        emitted = 0
        for row in self.child.execute(ctx):
            ctx.counters.rows += 1
            yield row
            emitted += 1
            if emitted >= self.limit:
                return

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit[{self.limit}]"
