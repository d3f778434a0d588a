"""The physical GApply operator.

Section 3 of the paper: "The physical implementation takes place in two
phases. *Partitioning Phase*: the input tuple stream is partitioned based on
the values in the grouping columns GCols. This can be implemented either
through sorting or through hashing. *Execution Phase*: this is performed in
a nested loops fashion — each group of tuples is read and the per-group
query PGQ is evaluated on each group ... by treating each group as a
temporary relation, binding a relation-valued parameter $group to each group
in succession."

The paper's two strategies map onto a memory threshold. In memory the
partition phase **hashes**: one pass building ``dict[key] -> rows``, then
one sort of the O(groups) key directory at the end of the phase. Under a
threshold it **sorts** externally (below). Either way groups come out in
**key order** (``key_function``'s order: NULLS FIRST, NaN above +inf),
the order ORDER BY and the sorted outer union use, so the two SQL
formulations of a published view yield one document, and a group's rows
keep their arrival order.

Rows with NULL grouping values form a single NULL group, matching GROUP BY.

The partition phase **materializes** each buffered row (an O(width) copy)
rather than retaining references into the input stream. A disk-based engine
pays width-proportional I/O to write partitions (the paper's client-side
simulation stored the outer result in a temp table); sharing references
would erase that cost here and hide the benefit of the
projection-before-GApply rule, so the copy keeps the cost model honest.

Under a cell budget the partition phase **spills to disk** through the
one external merge sort ORDER BY and DISTINCT use
(:class:`~repro.storage.spill.RunWriter`), then cuts the merged stream
into groups. The spill is ordered on the grouping key, so it holds no
per-group state in memory, and the stable merge returns groups in key
order and rows in arrival order: the in-memory output byte for byte.
Pickle round-trips values exactly, and keys hold
``NULL_KEY``/``NAN_KEY`` singletons, so a key read back from a run is
the key it was sorted under. Spilling counts
``spill_runs``/``spilled_rows``/``spill_bytes``. The threshold comes
from ``PlannerOptions.gapply_spill_threshold`` (forced, for tests and
the spill benchmark) or from the query governor's memory budget; the
execution phase still binds one whole group at a time in memory — the
GApply contract requires it — so the budget governs the *partition
buffer*, exactly the quantity the paper's §4.2 rules compete to shrink.

The phase is :meth:`PGApply.partition`, a function of a row iterator:
the Volcano operator passes ``outer.execute(ctx)``, the vector engine's
``GApplyNode`` its batches flattened, so both implementations
(in-memory hash, external sort) serve both engines.

:meth:`PGApply._execute` runs the execution phase as the paper states
it, one per-group plan run per group, and is the reference the compiled
plan is held to. The compiled plan (:mod:`repro.execution.vector.
segmented`) runs a per-group plan once per *wave* of whole groups, each
row tagged with its group, and counts what this loop counts.
"""

from __future__ import annotations

import operator
from typing import Hashable, Iterable, Iterator, Sequence

from repro.errors import PlanError
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.storage.spill import RunWriter
from repro.storage.table import Row
from repro.storage.types import key_function, raw_keys


def _buffer_row(row: Row) -> Row:
    """Copy a row into the partition buffer (width-proportional work).

    ``tuple(row)`` would return the same object, so the copy is forced by
    reconstruction; see the module docstring for why this is deliberate.
    """
    if not row:
        return row
    return row[:-1] + (row[-1],)


class _SpilledGroups:
    """A spilled partition's groups (iterable once), holding the run writer
    (spill files, resident cells) until :meth:`close`, not until the groups
    run out: the compiled plan reads a wave of groups ahead, and its last
    wave must run with the partition held, as the row iterators' last
    group does."""

    def __init__(self, groups: Iterator[tuple[tuple, list[Row]]], writer):
        self._groups = groups
        self.close = writer.close

    def __iter__(self) -> Iterator[tuple[tuple, list[Row]]]:
        return self._groups


class PGApply(PhysicalOperator):
    """Partition the outer stream; run the per-group plan per group.

    ``per_group`` is a physical plan whose GroupScan leaf reads the relation
    bound to ``group_variable``. Its output is crossed with the group's key
    values: output rows are ``key_values + pgq_row``.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        grouping_columns: Sequence[str],
        per_group: PhysicalOperator,
        group_variable: str = "group",
        spill_threshold: int | None = None,
    ):
        if spill_threshold is not None and spill_threshold < 1:
            raise PlanError(
                f"GApply spill_threshold must be >= 1, got {spill_threshold}"
            )
        self.spill_threshold = spill_threshold
        self.outer = outer
        self.grouping_columns = tuple(grouping_columns)
        self.per_group = per_group
        self.group_variable = group_variable
        self._key_positions = outer.schema.indices_of(grouping_columns)
        if len(self._key_positions) == 1:
            position = self._key_positions[0]
            self._key_getter = lambda row: (row[position],)
        else:
            self._key_getter = operator.itemgetter(*self._key_positions)
        key_getter = self._key_getter
        key_types = outer.schema.types(self._key_positions)
        self._key = key = key_function(key_types)
        self._raw = raw_keys(key_types)  # key values are their own keys
        self._group_key = lambda row: key(key_getter(row))
        self._hash_key = key_getter if self._raw else self._group_key
        from repro.algebra.operators import gapply_output_schema

        self.schema = gapply_output_schema(
            outer.schema, self.grouping_columns, per_group.schema, group_variable
        )

    # ------------------------------------------------------------------
    # Partitioning phase: a function of a row iterator, so the Volcano
    # operator (``outer.execute``) and the vector breaker (its batches,
    # flattened) share both implementations.
    # ------------------------------------------------------------------

    def _effective_spill_threshold(self, ctx: ExecutionContext) -> int | None:
        """Cells the partition buffer may hold resident before spilling:
        an explicit ``spill_threshold`` wins; otherwise the governor's
        memory budget, so a budgeted query spills instead of failing."""
        if self.spill_threshold is not None:
            return self.spill_threshold
        if ctx.governor is not None:
            return ctx.governor.spill_threshold()
        return None

    def partition(
        self, rows: Iterable[Row], ctx: ExecutionContext
    ) -> Iterator[tuple[tuple, list[Row]]]:
        """Group ``rows`` into ``(key_values, group_rows)`` pairs, in key
        order.

        The result is iterable once; close it to reclaim spill state.
        """
        threshold = self._effective_spill_threshold(ctx)
        if threshold is not None:
            return self._partition_spill(rows, ctx, threshold)
        return self._partition_hash(rows, ctx)

    def _count_partition(
        self, ctx: ExecutionContext, total: int, peak_rows: int
    ) -> None:
        counters = ctx.counters
        counters.peak_partition_rows = max(counters.peak_partition_rows, peak_rows)
        if ctx.metrics is not None:
            ctx.metrics.record_for(self).partition_rows += total

    def _partition_hash(self, rows, ctx):
        key_of = self._hash_key
        key_getter = self._key_getter
        buckets: dict[Hashable, tuple[tuple, list[Row]]] = {}
        get = buckets.get
        for row in rows:
            key = key_of(row)
            entry = get(key)
            if entry is None:
                buckets[key] = (key_getter(row), [_buffer_row(row)])
            else:
                entry[1].append(_buffer_row(row))
        # Counted per group, not per row: this loop is on the hot path of
        # every in-memory GApply under both engines.
        total = sum(len(group) for _, group in buckets.values())
        ctx.counters.hash_inserts += total
        ctx.counters.buffered_cells += total * len(self.outer.schema)
        self._count_partition(ctx, total, total)
        entries = list(buckets.values())
        key = self._key
        if self._raw:
            # Raw values order as their keys unless a NULL meets a value,
            # which raises; keys are distinct, so the order reached is
            # the key order either way.
            try:
                entries.sort(key=operator.itemgetter(0))
            except TypeError:
                entries.sort(key=lambda entry: key(entry[0]))
        else:
            entries.sort(key=lambda entry: key(entry[0]))
        yield from entries

    def _split_groups(
        self, ordered: Iterable[Row]
    ) -> Iterator[tuple[tuple, list[Row]]]:
        """Cut key-ordered rows into one ``(key_values, rows)`` per key."""
        key_getter = self._key_getter
        key_of = self._key
        raw = self._raw
        current_key: tuple | None = None
        current_values: tuple = ()
        bucket: list[Row] = []
        for row in ordered:
            key_values = key_getter(row)
            key = key_values if raw else key_of(key_values)
            if key != current_key:
                if current_key is not None:
                    yield current_values, bucket
                current_key = key
                current_values = key_values
                bucket = []
            bucket.append(row)
        if current_key is not None:
            yield current_values, bucket

    def _partition_spill(self, rows, ctx, threshold: int) -> "_SpilledGroups":
        """External merge sort (:class:`~repro.storage.spill.RunWriter`)
        on the grouping key, then one split into groups."""
        total = 0
        writer = RunWriter(ctx, self, self._group_key, threshold)
        try:
            for row in rows:
                buffered = _buffer_row(row)
                writer.add(buffered, len(buffered))
                total += 1
            ordered = writer.merged()
        except BaseException:
            writer.close()
            raise
        self._count_partition(ctx, total, writer.peak_rows)
        return _SpilledGroups(self._split_groups(ordered), writer)

    # ------------------------------------------------------------------
    # Execution phase
    # ------------------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        partitions = self.partition(self.outer.execute(ctx), ctx)
        # One child context, rebound per group: each group's per-group plan
        # is fully drained before the next binding, so mutation is safe and
        # avoids a dict copy per group.
        relations = dict(ctx.relations)
        group_ctx = ExecutionContext(
            ctx.counters, ctx.scalars, relations, ctx.metrics, ctx.tracer,
            ctx.governor,
        )
        counters = ctx.counters
        per_group = self.per_group
        variable = self.group_variable
        record = None if ctx.metrics is None else ctx.metrics.record_for(self)
        tracer = ctx.tracer
        try:
            for key_values, group_rows in partitions:
                counters.groups_partitioned += 1
                counters.group_executions += 1
                relations[variable] = group_rows
                span = (
                    None
                    if tracer is None
                    else tracer.begin(
                        "group", f"${variable}={key_values!r}",
                        group_rows=len(group_rows),
                    )
                )
                emitted = 0
                for pgq_row in per_group.execute(group_ctx):
                    counters.rows += 1
                    emitted += 1
                    yield key_values + pgq_row
                if record is not None:
                    record.groups_formed += 1
                    if not emitted:
                        record.empty_groups_skipped += 1
                if span is not None:
                    tracer.end(span, rows_out=emitted)
        finally:
            # A spilled partition holds its files and cells until closed,
            # on every exit path: after the last group, or on a mid-stream
            # error (cancellation, budget) raised from a per-group plan.
            partitions.close()

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.outer, self.per_group)

    def label(self) -> str:
        keys = ", ".join(self.grouping_columns)
        return f"GApply[{keys}; ${self.group_variable}]"
