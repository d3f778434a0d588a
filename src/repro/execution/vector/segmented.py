"""GApply's execution phase: the per-group query once per wave of groups.

Section 3 runs the execution phase "in a nested loops fashion": bind
``$group``, evaluate the per-group query (PGQ), repeat for the next
group. Run literally, every group pays the PGQ's whole per-execution
cost, however few rows it holds. Loop lifting (Grust et al., *XQuery
Join Graph Isolation*) evaluates a loop body once over every iteration,
with an ``iter`` column naming each row's iteration; here the group id
plays that role:

* :class:`GApplyNode` cuts ``PGApply.partition``'s key-ordered stream of
  groups into *waves* at group boundaries. A wave closes at the first
  boundary at or past :data:`WAVE_ROWS` rows, so it holds one group or
  more, and memory stays O(wave + one group) in memory or spilled.
* The PGQ runs once per wave. Every batch carries ``segs``: each row's
  segment, the index of its group in the wave, ascending.
* The segmented operators: the group scan emits the wave's rows with
  their segments; filter, project, prune/remap and alias carry the
  segments through; a scalar aggregate emits one row per segment it
  runs, empty ones included (``count`` 0, ``avg`` NULL), and a keyed one
  prefixes the segment to its key; an uncorrelated apply runs its inner
  once per segment whose outer yielded a row (the lazy cascade of
  ``PApply._execute``) and broadcasts that segment's rows over it ("compare
  to a group aggregate"); UNION ALL re-interleaves its branches by
  segment, in branch order inside each segment.
* Output rows are ``key_values[seg] + row``, in segment order: the order
  the per-group loop emits.

Counting follows segments, not waves, so the contract of DESIGN §12.3
holds: a segmented operator's ``executions`` grows by the number of
segments it ran, ``inner_executions``/``group_executions``/
``groups_partitioned``/``groups_formed``/``empty_groups_skipped`` count
segments, and row counters keep the row loop's totals. Tracing records
one ``group`` span per wave, with its group count.

Any other operator (a join, sort, distinct, limit, exists probe, nested
GApply, correlated apply, a scan of anything but this GApply's group)
loops where it sits: :class:`SegLoop` runs its subtree, compiled as
usual, once per segment with the group bound, and the operators around
it stay segmented. EXPLAIN lists such a GApply as a per-group loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import chain, repeat
from operator import add
from typing import Callable, Iterator

from repro.execution.aggregates import PHashAggregate
from repro.execution.apply import PApply, PExists
from repro.execution.basic import (
    PAlias,
    PDistinct,
    PFilter,
    PLimit,
    PProject,
    PPrune,
    PRemap,
    PSort,
    PUnionAll,
)
from repro.execution.context import ExecutionContext
from repro.execution.gapply import PGApply
from repro.execution.indexscan import PIndexNestedLoopJoin
from repro.execution.joins import PHashJoin
from repro.execution.scans import PGroupScan

from repro.execution.vector.aggregates import run_results
from repro.execution.vector.batch import DEFAULT_BATCH_SIZE, ColumnBatch
from repro.execution.vector.nodes import (
    HashAggregateNode,
    VectorNode,
    _flat_rows,
    rows_batch,
)
from repro.execution.vector.pipeline import (
    AliasStage,
    FilterStage,
    Pipeline,
    ProjectStage,
    PruneStage,
)

#: A wave closes at the first group boundary at or past this many rows.
WAVE_ROWS = 8 * DEFAULT_BATCH_SIZE


class Wave:
    """The groups one segmented PGQ run reads (segment id = list index)
    and the segments it runs, ascending."""

    __slots__ = ("groups", "active", "_flat")

    def __init__(self, groups: list, active: list):
        self.groups = groups
        self.active = active
        self._flat = None

    def flat(self) -> tuple[list, list]:
        """The active segments' rows, concatenated, and each one's segment
        (computed once: every group scan of the run reads it)."""
        if self._flat is None:
            members = [self.groups[seg] for seg in self.active]
            self._flat = (
                list(chain.from_iterable(members)),
                list(chain.from_iterable(map(repeat, self.active, map(len, members)))),
            )
        return self._flat


_LOOP_REASONS = {
    PApply: "correlated apply",
    PExists: "exists probe",
    PHashJoin: "join",
    PIndexNestedLoopJoin: "join",
    PSort: "sort",
    PDistinct: "distinct",
    PLimit: "limit",
    PGApply: "nested gapply",
}


def segment(
    op, variable: str, batch_size: int,
    loop: Callable[[object, str], VectorNode], root: bool = False,
) -> VectorNode:
    """The segmented form of per-group plan ``op`` over ``$variable``
    (``root``: ``op`` is the whole per-group plan, whose rows GApply reads).

    A subtree without a segmented form runs in a :class:`SegLoop` over
    ``loop(subtree, reason)``, its ordinary compiled node. Subtrees are
    visited in the compiler's order (an apply's inner before its outer).
    """
    if isinstance(op, PGroupScan) and op.variable == variable:
        return SegGroupScan(op, batch_size)
    if isinstance(op, (PFilter, PProject, PPrune, PRemap, PAlias)):
        stage = (
            FilterStage(op) if isinstance(op, PFilter)
            else ProjectStage(op) if isinstance(op, PProject)
            else AliasStage(op) if isinstance(op, PAlias)
            else PruneStage(op)
        )
        child = segment(op.child, variable, batch_size, loop)
        if isinstance(child, SegPipeline):
            return child.extend(stage)
        return SegPipeline(child, [stage])
    if isinstance(op, PHashAggregate):
        return SegAggregate(op, segment(op.child, variable, batch_size, loop), batch_size)
    if isinstance(op, PApply) and not op.bindings:
        inner = segment(op.inner, variable, batch_size, loop)
        return SegApply(op, segment(op.outer, variable, batch_size, loop), inner)
    if isinstance(op, PUnionAll):
        return SegUnionAll(
            op, [segment(c, variable, batch_size, loop) for c in op.inputs],
            batch_size, rows=root,
        )
    reason = (
        f"scan of ${op.variable}" if isinstance(op, PGroupScan)
        else _LOOP_REASONS.get(type(op), type(op).__name__)
    )
    return SegLoop(loop(op, reason), variable)


def segment_spans(segs: list, active: list) -> list[tuple[int, int]]:
    """``(start, end)`` of each ``active`` segment's run in ``segs`` (both
    ascending, ``segs`` drawn from ``active``); an absent segment's run
    is empty."""
    counts = Counter(segs)
    spans = []
    start = 0
    for seg in active:
        end = start + counts.get(seg, 0)
        spans.append((start, end))
        start = end
    return spans


def _with_segs(batch: ColumnBatch, segs: list) -> ColumnBatch:
    batch.segs = segs
    return batch


class SegmentedNode(VectorNode):
    """A node of a segmented PGQ: one ``batches`` call runs every segment
    in ``ctx.wave.active``, so it counts that many executions."""

    def _executions(self, ctx: ExecutionContext) -> int:
        return len(ctx.wave.active)


class SegGroupScan(SegmentedNode):
    def __init__(self, op, batch_size: int):
        self.op = op
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        counters = ctx.counters
        rows, segs = ctx.wave.flat()
        width = len(self.op.schema)
        size = self.batch_size
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            counters.rows += len(chunk)
            counters.group_scan_rows += len(chunk)
            yield _with_segs(rows_batch(chunk, width), segs[start : start + size])


class SegLoop(VectorNode):
    """A subtree without a segmented form, compiled as usual and run once
    per segment with ``$variable`` bound to its group; each batch is
    tagged with the segment. Overrides ``batches`` entirely, like
    ``VolcanoSource``: the subtree counts, meters and governs each run."""

    def __init__(self, node: VectorNode, variable: str):
        self.op = node.op
        self.node = node
        self.variable = variable

    def batches(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        wave = ctx.wave
        # One context rebound per segment, as ``PGApply._execute`` does;
        # outside the wave, so a GApply nested in the subtree cuts its own.
        relations = dict(ctx.relations)
        loop_ctx = replace(ctx, relations=relations, wave=None)
        for seg in wave.active:
            relations[self.variable] = wave.groups[seg]
            for batch in self.node.batches(loop_ctx):
                if batch.length:
                    yield _with_segs(batch, [seg] * batch.length)


class SegPipeline(SegmentedNode, Pipeline):
    """Filter, project, prune/remap and alias fused over a segmented
    source: the pipeline stages carry each row's segment through."""


class SegAggregate(SegmentedNode, HashAggregateNode):
    """Aggregation per segment. Scalar: one row per segment it runs,
    empty ones included, each the result over that segment's run of the
    wave's argument columns (float sums add left to right, as the row
    accumulator does). Keyed: the segment prefixes the key."""

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        if self.op.keys:
            groups: dict = {}
            for batch in self.child.batches(ctx):
                self._feed_keyed(groups, batch, ctx, batch.segs)
            yield from self._emit_keyed(groups, ctx, segs=True)
            return
        # The wave's argument columns, whole: every segment is one run.
        evaluators = self._arg_evaluators
        columns = [None if evaluate is None else [] for evaluate in evaluators]
        segs: list = []
        for batch in self.child.batches(ctx):
            segs.extend(batch.segs)
            for column, evaluate in zip(columns, evaluators):
                if evaluate is not None:
                    column.extend(evaluate(batch, ctx))
        active = ctx.wave.active
        spans = segment_spans(segs, active)
        rows = list(
            zip(*[
                run_results(factory, column, spans)
                for factory, column in zip(self._factories, columns)
            ])
        ) or [()] * len(active)
        width = len(self.op.schema)
        size = self.batch_size
        for start in range(0, len(active), size):
            chunk = rows[start : start + size]
            ctx.counters.rows += len(chunk)
            yield _with_segs(rows_batch(chunk, width), active[start : start + size])


class SegApply(SegmentedNode):
    """Uncorrelated apply over segments: the outer runs once for the wave,
    the inner once over the segments the outer yielded rows for, and each
    outer row is crossed with its own segment's inner rows."""

    def __init__(self, op, outer: VectorNode, inner: VectorNode):
        self.op = op
        self.outer = outer
        self.inner = inner
        self.outer_width = len(op.outer.schema)
        self.inner_width = len(op.inner.schema)
        self.width = len(op.schema)

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        counters = ctx.counters
        outer_batches = list(self.outer.batches(ctx))
        present = list(
            dict.fromkeys(chain.from_iterable(batch.segs for batch in outer_batches))
        )
        if not present:
            return
        counters.inner_executions += len(present)
        wave = ctx.wave
        inner_ctx = (
            ctx if len(present) == len(wave.active)
            else replace(ctx, wave=Wave(wave.groups, present))
        )
        inner_rows: list = []
        inner_segs: list = []
        for batch in self.inner.batches(inner_ctx):
            inner_rows.extend(batch.rows())
            inner_segs.extend(batch.segs)
        # The common cases, a scalar subquery or an exists: at most one
        # inner row per segment, broadcast column by column over the
        # outer rows of the segments that have one.
        row_of = dict(zip(inner_segs, inner_rows))
        single = len(row_of) == len(inner_segs)
        if not single:
            matches: dict = {}
            for seg, row in zip(inner_segs, inner_rows):
                found = matches.get(seg)
                if found is None:
                    matches[seg] = [row]
                else:
                    found.append(row)
        for batch in outer_batches:
            segs = batch.segs
            if single:
                if len(row_of) < len(present):
                    keep = [i for i, seg in enumerate(segs) if seg in row_of]
                    if not keep:
                        continue
                    batch = batch.select(keep)
                    segs = batch.segs
                broadcast = [row_of[seg] for seg in segs]
                columns = [batch.column(p) for p in range(self.outer_width)]
                columns.extend(
                    [row[j] for row in broadcast] for j in range(self.inner_width)
                )
                out = _with_segs(ColumnBatch(columns=columns, length=len(segs)), segs)
            else:
                rows: list = []
                out_segs: list = []
                for seg, row in zip(segs, batch.rows()):
                    for inner_row in matches.get(seg, ()):
                        rows.append(row + inner_row)
                        out_segs.append(seg)
                if not rows:
                    continue
                out = _with_segs(rows_batch(rows, self.width), out_segs)
            counters.rows += out.length
            yield out


class SegUnionAll(SegmentedNode):
    """UNION ALL over segments: every branch's output for the wave, then
    per segment each branch's run of it, in branch order. It reorders
    rows when it is the per-group plan's root (GApply reads rows next),
    else columns (an operator above reads them without a round trip)."""

    def __init__(
        self, op, children: list[VectorNode], batch_size: int, rows: bool
    ):
        self.op = op
        self.child_nodes = children
        self.batch_size = batch_size
        self.rows = rows

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        active = ctx.wave.active
        width = len(self.op.schema)
        # The branches' outputs one after another (their rows, or column
        # j of them all; their segments), and where each branch starts.
        parts: list = [[]] if self.rows else [[] for _ in range(width)]
        segs: list = []
        branches = []
        for child in self.child_nodes:
            offset = len(segs)
            for batch in child.batches(ctx):
                segs.extend(batch.segs)
                if self.rows:
                    parts[0].extend(batch.rows())
                else:
                    for j, part in enumerate(parts):
                        part.extend(batch.column(j))
            if len(segs) > offset:
                branches.append((offset, segment_spans(segs[offset:], active)))
        if len(branches) > 1:
            # Each segment's run of each branch, in output order.
            blocks = [
                (offset + spans[i][0], offset + spans[i][1])
                for i in range(len(active))
                for offset, spans in branches
                if spans[i][1] > spans[i][0]
            ]
            parts = [_gather(part, blocks) for part in parts]
            segs = _gather(segs, blocks)
        size = self.batch_size
        for start in range(0, len(segs), size):
            chunk = segs[start : start + size]
            ctx.counters.rows += len(chunk)
            if self.rows:
                batch = rows_batch(parts[0][start : start + size], width)
            else:
                batch = ColumnBatch(
                    columns=[part[start : start + size] for part in parts],
                    length=len(chunk),
                )
            yield _with_segs(batch, chunk)


def _gather(values: list, blocks: list) -> list:
    """The ``(start, end)`` slices of ``values``, concatenated."""
    out: list = []
    for start, end in blocks:
        out.extend(values[start:end])
    return out


def waves(partitions) -> Iterator[tuple[list, list]]:
    """Cut a key-ordered ``(key_values, group_rows)`` stream into waves:
    ``(key values per group, rows per group)``, each closed at the first
    group boundary at or past :data:`WAVE_ROWS` rows."""
    keys: list = []
    groups: list = []
    rows = 0
    for key_values, group_rows in partitions:
        keys.append(key_values)
        groups.append(group_rows)
        rows += len(group_rows)
        if rows >= WAVE_ROWS:
            yield keys, groups
            keys, groups, rows = [], [], 0
    if groups:
        yield keys, groups


class GApplyNode(VectorNode):
    """GApply breaker: ``PGApply.partition`` over the outer batches' rows
    (in memory or spilling, chosen there at run time), then the segmented
    per-group plan once per wave; counter for counter what ``PGApply``
    counts."""

    def __init__(
        self, op, outer: VectorNode, per_group: VectorNode, batch_size: int
    ):
        self.op = op
        self.outer = outer
        self.per_group = per_group
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        counters = ctx.counters
        record = None if ctx.metrics is None else ctx.metrics.record_for(op)
        tracer = ctx.tracer
        width = len(op.schema)
        size = self.batch_size
        pending: list = []
        partitions = op.partition(_flat_rows(self.outer, ctx), ctx)
        try:
            for keys, groups in waves(partitions):
                count = len(groups)
                counters.groups_partitioned += count
                counters.group_executions += count
                span = (
                    None
                    if tracer is None
                    else tracer.begin(
                        "group", f"${op.group_variable} x{count}", groups=count,
                        group_rows=sum(map(len, groups)),
                    )
                )
                wave_ctx = replace(ctx, wave=Wave(groups, list(range(count))))
                emitted = 0
                empty = count
                last = -1
                for batch in self.per_group.batches(wave_ctx):
                    rows = batch.rows()
                    segs = batch.segs
                    emitted += len(rows)
                    counters.rows += len(rows)
                    pending.extend(map(add, map(keys.__getitem__, segs), rows))
                    empty -= len(dict.fromkeys(segs)) - (segs[0] == last)
                    last = segs[-1]
                    if len(pending) >= size:
                        yield rows_batch(pending, width)
                        pending = []
                if record is not None:
                    record.groups_formed += count
                    record.empty_groups_skipped += empty
                if span is not None:
                    tracer.end(span, rows_out=emitted)
        finally:
            # As in ``PGApply._execute``: the partition holds its spill
            # state until closed.
            partitions.close()
        if pending:
            yield rows_batch(pending, width)
