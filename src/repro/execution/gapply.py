"""The physical GApply operator.

Section 3 of the paper: "The physical implementation takes place in two
phases. *Partitioning Phase*: the input tuple stream is partitioned based on
the values in the grouping columns GCols. This can be implemented either
through sorting or through hashing. *Execution Phase*: this is performed in
a nested loops fashion — each group of tuples is read and the per-group
query PGQ is evaluated on each group ... by treating each group as a
temporary relation, binding a relation-valued parameter $group to each group
in succession."

Both partitioning strategies are implemented:

* ``hash`` — one pass building ``dict[key] -> rows``; group output order is
  first-appearance order (deterministic for reproducible tests, like a
  hash-partition that preserves bucket discovery order);
* ``sort`` — sort the materialized input on the grouping key and split runs;
  output groups are clustered in key order, which makes the downstream
  clustering the tagger needs free of charge (the Section 3.1 point that an
  explicit partition operator above GApply becomes redundant).

Rows with NULL grouping values form a single NULL group, matching GROUP BY.

The partition phase **materializes** each buffered row (an O(width) copy)
rather than retaining references into the input stream. A disk-based engine
pays width-proportional I/O to write partitions (the paper's client-side
simulation stored the outer result in a temp table); sharing references
would erase that cost here and hide the benefit of the
projection-before-GApply rule, so the copy keeps the cost model honest.

Under a cell budget the partition phase **spills to disk**
(:mod:`repro.storage.spill`) instead of buffering without bound:

* *hash* partitioning keeps the key directory (first-appearance order and
  per-key record offsets) in memory and flushes buffered row payloads to
  an offset-addressed spill file whenever the resident buffer would cross
  the threshold — the hybrid-hash shape, where the directory is
  O(groups + rows) pointers but the O(rows x width) payload lives on
  disk;
* *sort* partitioning becomes a textbook external merge sort: sorted runs
  of at most the threshold, merged stably on re-read — the same
  :class:`~repro.storage.spill.RunWriter` ORDER BY and DISTINCT use.

The phase is :meth:`PGApply.partition`, a function of a row iterator:
the Volcano operator passes ``outer.execute(ctx)``, the vector engine's
``GApplyNode`` its batches flattened, so all four implementations (and
their spill bookkeeping) exist once and serve both engines.

Both paths reproduce the in-memory output byte for byte (group order,
within-group order, and values — pickle round-trips exactly), and count
``spill_runs``/``spilled_rows``/``spill_bytes``. The threshold comes from
``PlannerOptions.gapply_spill_threshold`` (forced, for tests and the
spill benchmark) or from the query governor's memory budget; the
execution phase still binds one whole group at a time in memory — the
GApply contract requires it — so the budget governs the *partition
buffer*, exactly the quantity the paper's §4.2 rules compete to shrink.
"""

from __future__ import annotations

import operator
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from repro.errors import MemoryBudgetExceeded, PlanError
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.storage.spill import RunWriter, SpillFile
from repro.storage.table import Row
from repro.storage.types import grouping_key

HASH_PARTITION = "hash"
SORT_PARTITION = "sort"


def _buffer_row(row: Row) -> Row:
    """Copy a row into the partition buffer (width-proportional work).

    ``tuple(row)`` would return the same object, so the copy is forced by
    reconstruction; see the module docstring for why this is deliberate.
    """
    if not row:
        return row
    return row[:-1] + (row[-1],)


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
        partitioning: str = HASH_PARTITION,
        spill_threshold: int | None = None,
    ):
        if partitioning not in (HASH_PARTITION, SORT_PARTITION):
            raise PlanError(
                f"unknown GApply partitioning {partitioning!r}; "
                f"use {HASH_PARTITION!r} or {SORT_PARTITION!r}"
            )
        if spill_threshold is not None and spill_threshold < 1:
            raise PlanError(
                f"GApply spill_threshold must be >= 1, got {spill_threshold}"
            )
        self.spill_threshold = spill_threshold
        self.outer = outer
        self.grouping_columns = tuple(grouping_columns)
        self.per_group = per_group
        self.group_variable = group_variable
        self.partitioning = partitioning
        self._key_positions = outer.schema.indices_of(grouping_columns)
        if len(self._key_positions) == 1:
            position = self._key_positions[0]
            self._key_getter = lambda row: (row[position],)
        else:
            self._key_getter = operator.itemgetter(*self._key_positions)
        key_getter = self._key_getter
        self._group_key = lambda row: grouping_key(key_getter(row))
        from repro.algebra.operators import gapply_output_schema

        self.schema = gapply_output_schema(
            outer.schema, self.grouping_columns, per_group.schema, group_variable
        )

    # ------------------------------------------------------------------
    # Partitioning phase: a function of a row iterator, so the Volcano
    # operator (``outer.execute``) and the vector breaker (its batches,
    # flattened) share all four implementations.
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
        self,
        rows: Iterable[Row],
        ctx: ExecutionContext,
        key_of: Callable[[Row], Hashable] | None = None,
    ) -> Iterator[tuple[tuple, list[Row]]]:
        """Group ``rows`` into ``(key_values, group_rows)`` pairs.

        ``key_of`` maps a row to its hash-partition dict key; the default
        is the NULL-safe ``grouping_key`` of the grouping columns (the
        vector engine passes the raw key tuple where that is equivalent).
        The result is a generator; close it to reclaim spill state.
        """
        threshold = self._effective_spill_threshold(ctx)
        if self.partitioning == HASH_PARTITION:
            key_of = key_of or self._group_key
            if threshold is None:
                return self._partition_hash(rows, ctx, key_of)
            return self._partition_hash_spill(rows, ctx, key_of, threshold)
        if threshold is None:
            return self._partition_sort(rows, ctx)
        return self._partition_sort_spill(rows, ctx, threshold)

    def _count_partition(
        self, ctx: ExecutionContext, total: int, peak_rows: int
    ) -> None:
        counters = ctx.counters
        counters.peak_partition_rows = max(counters.peak_partition_rows, peak_rows)
        if ctx.metrics is not None:
            ctx.metrics.record_for(self).partition_rows += total

    def _partition_hash(self, rows, ctx, key_of):
        key_getter = self._key_getter
        buckets: dict[Hashable, tuple[tuple, list[Row]]] = {}
        for row in rows:
            key = key_of(row)
            entry = buckets.get(key)
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
        yield from buckets.values()

    def _partition_sort(self, rows, ctx):
        buffered = [_buffer_row(row) for row in rows]
        ctx.counters.buffered_cells += len(buffered) * len(self.outer.schema)
        self._count_partition(ctx, len(buffered), len(buffered))
        buffered.sort(key=self._group_key)
        ctx.counters.comparisons += len(buffered)
        yield from self._split_groups(buffered)

    def _split_groups(
        self, ordered: Iterable[Row]
    ) -> Iterator[tuple[tuple, list[Row]]]:
        """Cut key-ordered rows into one ``(key_values, rows)`` per key."""
        key_getter = self._key_getter
        current_key: tuple | None = None
        current_values: tuple = ()
        bucket: list[Row] = []
        for row in ordered:
            key_values = key_getter(row)
            key = grouping_key(key_values)
            if key != current_key:
                if current_key is not None:
                    yield current_values, bucket
                current_key = key
                current_values = key_values
                bucket = []
            bucket.append(row)
        if current_key is not None:
            yield current_values, bucket

    def _partition_hash_spill(self, rows, ctx, key_of, threshold: int):
        """Hybrid hash partitioning: in-memory directory, on-disk payload.

        The directory maps each key to its first-appearance slot (dict
        insertion order), the offsets of its already-spilled rows, and
        its still-resident rows. Whenever admitting a row would push the
        resident buffer past ``threshold`` cells, one *flush wave*
        appends every resident row to the spill file (arrival order
        within each key) and empties the buffer. Read-back per group is
        spilled offsets first, resident tail last — the exact arrival
        order — so output is byte-identical to the in-memory path.
        """
        counters = ctx.counters
        key_getter = self._key_getter
        governor = ctx.governor
        record = None if ctx.metrics is None else ctx.metrics.record_for(self)
        # key -> [key_values, spilled offsets, resident rows]
        directory: dict[Hashable, list] = {}
        resident_cells = 0
        peak_resident_rows = resident_rows = 0
        total = 0
        spill_runs = 0
        spill = SpillFile()

        def flush_wave() -> None:
            nonlocal resident_cells, resident_rows, spill_runs
            for entry in directory.values():
                offsets, resident = entry[1], entry[2]
                for row in resident:
                    offsets.append(spill.append(row))
                resident.clear()
            spill_runs += 1
            if governor is not None:
                governor.release_cells(resident_cells)
            resident_cells = resident_rows = 0

        try:
            for row in rows:
                counters.hash_inserts += 1
                counters.buffered_cells += len(row)
                total += 1
                buffered = _buffer_row(row)
                width = len(buffered)
                if resident_cells and resident_cells + width > threshold:
                    flush_wave()
                if governor is not None:
                    try:
                        governor.charge_cells(width)
                    except MemoryBudgetExceeded:
                        # Same shared-budget retry as RunWriter.add: a
                        # concurrent holder ate the headroom; free our
                        # resident rows before declaring the cap too
                        # small.
                        if not resident_cells:
                            raise
                        flush_wave()
                        governor.charge_cells(width)
                key = key_of(row)
                entry = directory.get(key)
                if entry is None:
                    entry = [key_getter(row), [], []]
                    directory[key] = entry
                entry[2].append(buffered)
                resident_cells += width
                resident_rows += 1
                if resident_rows > peak_resident_rows:
                    peak_resident_rows = resident_rows
            self._count_partition(ctx, total, peak_resident_rows)
            for counts in (counters, record):
                if counts is not None:
                    counts.spill_runs += spill_runs
                    counts.spilled_rows += spill.records
                    counts.spill_bytes += spill.bytes_written
            for key_values, offsets, resident in directory.values():
                if offsets:
                    group = [spill.read_at(offset) for offset in offsets]
                    group.extend(resident)
                else:
                    group = resident
                yield key_values, group
        finally:
            spill.close()
            if governor is not None and resident_cells:
                governor.release_cells(resident_cells)

    def _partition_sort_spill(self, rows, ctx, threshold: int):
        """External merge sort (:class:`~repro.storage.spill.RunWriter`)
        on the grouping key, then the in-memory path's group split."""
        total = 0
        with RunWriter(ctx, self, self._group_key, threshold) as writer:
            for row in rows:
                buffered = _buffer_row(row)
                writer.add(buffered, len(buffered))
                total += 1
            ordered = writer.merged()
            self._count_partition(ctx, total, writer.peak_rows)
            yield from self._split_groups(ordered)

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
            # A mid-stream error (cancellation, budget) raised from a
            # per-group plan leaves the suspended partition generator
            # pinned alive by the exception traceback, so its finally
            # (spill-file close, cell release) would never run. Close it
            # explicitly on every exit path.
            partitions.close()

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.outer, self.per_group)

    def label(self) -> str:
        keys = ", ".join(self.grouping_columns)
        return f"GApply:{self.partitioning}[{keys}; ${self.group_variable}]"
