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
  of at most the threshold, merged stably on re-read.

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
from typing import Iterator, Sequence

from repro.errors import MemoryBudgetExceeded, PlanError
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
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
        spill_dir: str | None = None,
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
        self.spill_dir = spill_dir
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
        from repro.algebra.operators import gapply_output_schema

        self.schema = gapply_output_schema(
            outer.schema, self.grouping_columns, per_group.schema, group_variable
        )

    # ------------------------------------------------------------------
    # Partitioning phase
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

    def _partition_hash(
        self, ctx: ExecutionContext
    ) -> Iterator[tuple[tuple, list[Row]]]:
        counters = ctx.counters
        buckets: dict[tuple, tuple[tuple, list[Row]]] = {}
        total = 0
        key_getter = self._key_getter
        for row in self.outer.execute(ctx):
            key_values = key_getter(row)
            key = grouping_key(key_values)
            counters.hash_inserts += 1
            counters.buffered_cells += len(row)
            total += 1
            buffered = _buffer_row(row)
            entry = buckets.get(key)
            if entry is None:
                buckets[key] = (key_values, [buffered])
            else:
                entry[1].append(buffered)
        counters.peak_partition_rows = max(counters.peak_partition_rows, total)
        if ctx.metrics is not None:
            ctx.metrics.record_for(self).partition_rows += total
        for key_values, rows in buckets.values():
            yield key_values, rows

    def _partition_sort(
        self, ctx: ExecutionContext
    ) -> Iterator[tuple[tuple, list[Row]]]:
        counters = ctx.counters
        key_getter = self._key_getter
        rows = [_buffer_row(row) for row in self.outer.execute(ctx)]
        counters.buffered_cells += sum(len(row) for row in rows)
        counters.peak_partition_rows = max(counters.peak_partition_rows, len(rows))
        if ctx.metrics is not None:
            ctx.metrics.record_for(self).partition_rows += len(rows)
        rows.sort(key=lambda row: grouping_key(key_getter(row)))
        counters.comparisons += len(rows)
        current_key: tuple | None = None
        current_values: tuple = ()
        bucket: list[Row] = []
        for row in rows:
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

    # ------------------------------------------------------------------
    # Partitioning phase, spilling variants (cell budget in force)
    # ------------------------------------------------------------------

    def _partition_hash_spill(
        self, ctx: ExecutionContext, threshold: int
    ) -> Iterator[tuple[tuple, list[Row]]]:
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
        from repro.storage.spill import SpillFile

        counters = ctx.counters
        key_getter = self._key_getter
        governor = ctx.governor
        record = None if ctx.metrics is None else ctx.metrics.record_for(self)
        # key -> [key_values, spilled offsets, resident rows]
        directory: dict[tuple, list] = {}
        resident_cells = 0
        peak_resident_rows = resident_rows = 0
        total = 0
        spill_runs = spilled_rows = 0
        spill = SpillFile(self.spill_dir)

        def flush_wave() -> None:
            nonlocal resident_cells, resident_rows, spill_runs, spilled_rows
            for entry in directory.values():
                offsets, rows = entry[1], entry[2]
                for resident in rows:
                    offsets.append(spill.append(resident))
                spilled_rows += len(rows)
                rows.clear()
            spill_runs += 1
            if governor is not None:
                governor.release_cells(resident_cells)
            resident_cells = resident_rows = 0

        try:
            for row in self.outer.execute(ctx):
                key_values = key_getter(row)
                key = grouping_key(key_values)
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
                        # Same shared-budget retry as the sort path: a
                        # concurrent holder ate the headroom; free our
                        # resident rows before declaring the cap too
                        # small.
                        if not resident_cells:
                            raise
                        flush_wave()
                        governor.charge_cells(width)
                entry = directory.get(key)
                if entry is None:
                    entry = [key_values, [], []]
                    directory[key] = entry
                entry[2].append(buffered)
                resident_cells += width
                resident_rows += 1
                if resident_rows > peak_resident_rows:
                    peak_resident_rows = resident_rows
            counters.peak_partition_rows = max(
                counters.peak_partition_rows, peak_resident_rows
            )
            counters.spill_runs += spill_runs
            counters.spilled_rows += spilled_rows
            counters.spill_bytes += spill.bytes_written
            if record is not None:
                record.partition_rows += total
                record.spill_runs += spill_runs
                record.spilled_rows += spilled_rows
                record.spill_bytes += spill.bytes_written
            for key_values, offsets, rows in directory.values():
                if offsets:
                    group = [spill.read_at(offset) for offset in offsets]
                    group.extend(rows)
                else:
                    group = rows
                yield key_values, group
        finally:
            spill.close()
            if governor is not None and resident_cells:
                governor.release_cells(resident_cells)

    def _partition_sort_spill(
        self, ctx: ExecutionContext, threshold: int
    ) -> Iterator[tuple[tuple, list[Row]]]:
        """External merge sort: runs of at most ``threshold`` cells,
        sorted in memory and written out; a stable k-way merge re-reads
        them in key order (run order + resident tail last = arrival
        order on ties, matching the in-memory stable sort exactly)."""
        from repro.storage.spill import SpillRun, merge_runs

        counters = ctx.counters
        key_getter = self._key_getter
        governor = ctx.governor
        record = None if ctx.metrics is None else ctx.metrics.record_for(self)
        sort_key = lambda row: grouping_key(key_getter(row))  # noqa: E731
        runs: list[SpillRun] = []
        buffer: list[Row] = []
        resident_cells = 0
        peak_resident_rows = 0
        total = 0
        spilled_rows = spill_bytes = 0
        def flush_run() -> None:
            nonlocal buffer, resident_cells, spilled_rows, spill_bytes
            buffer.sort(key=sort_key)
            counters.comparisons += len(buffer)
            run = SpillRun(buffer, self.spill_dir)
            runs.append(run)
            spilled_rows += run.records
            spill_bytes += run.bytes_written
            if governor is not None:
                governor.release_cells(resident_cells)
            buffer = []
            resident_cells = 0

        try:
            for row in self.outer.execute(ctx):
                buffered = _buffer_row(row)
                width = len(buffered)
                counters.buffered_cells += width
                total += 1
                if resident_cells and resident_cells + width > threshold:
                    flush_run()
                if governor is not None:
                    try:
                        governor.charge_cells(width)
                    except MemoryBudgetExceeded:
                        # The budget is shared: concurrent holders (the
                        # publisher's chunk buffer, sibling operators)
                        # can consume the headroom the threshold assumed
                        # was ours. Spill what we hold and retry; only a
                        # retry failure means the cap is genuinely too
                        # small.
                        if not resident_cells:
                            raise
                        flush_run()
                        governor.charge_cells(width)
                buffer.append(buffered)
                resident_cells += width
                if len(buffer) > peak_resident_rows:
                    peak_resident_rows = len(buffer)
            counters.peak_partition_rows = max(
                counters.peak_partition_rows, peak_resident_rows
            )
            counters.spill_runs += len(runs)
            counters.spilled_rows += spilled_rows
            counters.spill_bytes += spill_bytes
            if record is not None:
                record.partition_rows += total
                record.spill_runs += len(runs)
                record.spilled_rows += spilled_rows
                record.spill_bytes += spill_bytes
            buffer.sort(key=sort_key)
            counters.comparisons += len(buffer)
            merged = (
                merge_runs([*runs, buffer], key=sort_key) if runs else buffer
            )
            current_key: tuple | None = None
            current_values: tuple = ()
            bucket: list[Row] = []
            for row in merged:
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
        finally:
            for run in runs:
                run.close()
            if governor is not None and resident_cells:
                governor.release_cells(resident_cells)

    # ------------------------------------------------------------------
    # Execution phase
    # ------------------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        threshold = self._effective_spill_threshold(ctx)
        if self.partitioning == HASH_PARTITION:
            if threshold is None:
                partitions = self._partition_hash(ctx)
            else:
                partitions = self._partition_hash_spill(ctx, threshold)
        else:
            if threshold is None:
                partitions = self._partition_sort(ctx)
            else:
                partitions = self._partition_sort_spill(ctx, threshold)
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
