"""Vector nodes: batch sources and pipeline breakers.

A :class:`VectorNode` is the batch-level analogue of a
:class:`~repro.execution.base.PhysicalOperator`: ``batches(ctx)`` yields
:class:`~repro.execution.vector.batch.ColumnBatch` objects. Every node
is bound to the *original* physical operator it implements (``self.op``)
and counts work into the same :class:`~repro.execution.context.Counters`
fields and :class:`~repro.observe.metrics.MetricsRegistry` records the
Volcano implementation would — at batch granularity, which is where the
speedup comes from (one counter update per batch, not per row).

The base-class ``batches`` wrapper centralizes the per-node
instrumentation protocol, mirroring ``MetricsRegistry.drive``:

* ``executions``/``rows_out``/``elapsed_ns`` on the operator's record
  (records resolved lazily, only when a registry is attached);
* an ``operator`` tracer span per execution when tracing;
* ``governor.check()`` at iterator start and ``tick(n)`` per batch —
  under a governor the wall-clock/cancel state is observed at least once
  per batch at every node, the batch-granularity version of the Volcano
  per-row stride.

Subclasses implement ``_run(ctx)`` and update only the *operator
specific* counters there.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.storage.types import DataType, grouping_key

from repro.execution.vector.aggregates import make_state
from repro.execution.vector.batch import ColumnBatch, row_slices
from repro.execution.vector.exprs import compile_batch


#: Below this many rows, a GApply group runs its per-group plan on the
#: Volcano iterators instead of the batch nodes: the engines are
#: counter-identical by construction, and the batch machinery's fixed
#: per-execution cost only pays for itself on groups with real volume.
VECTOR_GROUP_MIN_ROWS = 16


def rows_batch(rows: list, width: int) -> ColumnBatch:
    """Wrap freshly-built row tuples as a batch (row cache retained)."""
    if width == 0:
        return ColumnBatch(columns=[], length=len(rows))
    return ColumnBatch(rows=rows, length=len(rows))


def raw_group_keys_ok(schema, positions) -> bool:
    """True when raw value tuples can replace ``grouping_key`` as dict
    keys for same-column grouping (GROUP BY / GApply partition / whole-row
    DISTINCT): only ``ANY``-typed columns can mix bools with numbers in
    one position and hit the ``True == 1`` collision the tagged key
    guards against. ``None`` needs no sentinel for hashing — it is equal
    only to itself, exactly the NULLs-group-together behaviour."""
    return all(schema[p].dtype is not DataType.ANY for p in positions)


def rebatch(rows, width: int, size: int) -> Iterator[ColumnBatch]:
    """Cut a row stream into row-major batches of at most ``size`` rows
    (closing the batches closes ``rows``)."""
    for chunk in row_slices(rows, size):
        yield rows_batch(chunk, width)


class VectorNode:
    """Base class; subclasses set ``op`` and implement ``_run``."""

    op: PhysicalOperator

    def batches(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        governor = ctx.governor
        if governor is not None:
            governor.check()
        metrics = ctx.metrics
        if metrics is None:
            if governor is None:
                yield from self._run(ctx)
            else:
                for batch in self._run(ctx):
                    governor.tick(batch.length)
                    yield batch
            return
        record = metrics.record_for(self.op)
        record.executions += 1
        tracer = ctx.tracer
        span = (
            None
            if tracer is None
            else tracer.begin("operator", self.op.label(), path=record.path)
        )
        clock = metrics.clock
        iterator = self._run(ctx)
        rows = 0
        elapsed = 0
        try:
            while True:
                start = clock()
                try:
                    batch = next(iterator)
                except StopIteration:
                    elapsed += clock() - start
                    break
                elapsed += clock() - start
                rows += batch.length
                if governor is not None:
                    governor.tick(batch.length)
                yield batch
        finally:
            record.rows_out += rows
            record.elapsed_ns += elapsed
            if span is not None:
                tracer.end(span, rows_out=rows)

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        raise NotImplementedError


class VolcanoSource(VectorNode):
    """Fallback leaf: an unsupported subtree running under the row engine.

    Overrides ``batches`` entirely — the wrapped operator does all of its
    own counting, metrics, and governing through ``execute``, so the
    subtree behaves exactly as it does under ``run_plan``.
    """

    def __init__(self, op: PhysicalOperator, batch_size: int):
        self.op = op
        self.batch_size = batch_size

    def batches(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        return rebatch(op.execute(ctx), len(op.schema), self.batch_size)


class EmptyNode(VectorNode):
    """``Limit[<=0]``: the operator executes; its subtree never does
    (mirroring the lazy Volcano cascade, where the child iterator is
    never even created)."""

    def __init__(self, op: PhysicalOperator):
        self.op = op

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        return
        yield  # pragma: no cover - generator marker


class TableScanSource(VectorNode):
    def __init__(self, op, batch_size: int):
        self.op = op
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        counters = ctx.counters
        width = len(self.op.schema)
        rows = self.op.table.rows
        size = self.batch_size
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            n = len(chunk)
            counters.rows += n
            counters.table_scan_rows += n
            yield rows_batch(chunk, width)


class GroupScanSource(VectorNode):
    def __init__(self, op, batch_size: int):
        self.op = op
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        counters = ctx.counters
        width = len(self.op.schema)
        rows = ctx.relation(self.op.variable)
        size = self.batch_size
        for start in range(0, len(rows), size):
            chunk = list(rows[start : start + size])
            n = len(chunk)
            counters.rows += n
            counters.group_scan_rows += n
            yield rows_batch(chunk, width)


class MaterializedSource(VectorNode):
    def __init__(self, op, batch_size: int):
        self.op = op
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        counters = ctx.counters
        width = len(self.op.schema)
        rows = self.op._rows
        size = self.batch_size
        for start in range(0, len(rows), size):
            chunk = rows[start : start + size]
            counters.rows += len(chunk)
            yield rows_batch(chunk, width)


class IndexSeekSource(VectorNode):
    """Index probe leaf; the residual runs row-at-a-time exactly like the
    Volcano operator (including its dual counter/record comparison
    accounting)."""

    def __init__(self, op, batch_size: int):
        self.op = op
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        counters = ctx.counters
        width = len(op.schema)
        record = None if ctx.metrics is None else ctx.metrics.record_for(op)
        if record is not None:
            record.index_probes += 1
        residual = op._evaluate_residual
        size = self.batch_size
        out: list = []
        for row in op._fetch():
            counters.table_scan_rows += 1
            if residual is not None:
                counters.comparisons += 1
                if record is not None:
                    record.comparisons += 1
                if residual(row, ctx) is not True:
                    continue
            out.append(row)
            if len(out) >= size:
                counters.rows += len(out)
                yield rows_batch(out, width)
                out = []
        if out:
            counters.rows += len(out)
            yield rows_batch(out, width)


def _flat_rows(node: VectorNode, ctx: ExecutionContext) -> Iterator:
    """A node's batches as one row stream: what the breakers feed the
    physical operator's own row-iterator phases (sort, external dedupe,
    GApply's partition)."""
    return chain.from_iterable(batch.rows() for batch in node.batches(ctx))


class DistinctNode(VectorNode):
    """Whole-row DISTINCT mirroring ``PDistinct``: a streaming hash
    dedupe per batch, or — under a governor memory budget — the
    operator's external two-phase dedupe over the child's rows."""

    def __init__(self, op, child: VectorNode, batch_size: int):
        self.op = op
        self.child = child
        self.batch_size = batch_size
        self._raw = raw_group_keys_ok(op.schema, range(len(op.schema)))

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        counters = ctx.counters
        governor = ctx.governor
        width = len(op.schema)
        threshold = None if governor is None else governor.spill_threshold()
        if threshold is not None:
            rows = op.external_distinct(
                _flat_rows(self.child, ctx), ctx, threshold
            )
            yield from rebatch(rows, width, self.batch_size)
            return
        raw = self._raw
        seen: set = set()
        try:
            for batch in self.child.batches(ctx):
                n = batch.length
                counters.hash_inserts += n
                rows = batch.rows()
                keep = []
                for i, key in enumerate(
                    rows if raw else [grouping_key(row) for row in rows]
                ):
                    if key not in seen:
                        seen.add(key)
                        keep.append(i)
                new = len(keep)
                if not new:
                    continue
                counters.buffered_cells += new * width
                if governor is not None:
                    governor.charge_cells(new * width)
                counters.rows += new
                yield batch if new == n else batch.select(keep)
        finally:
            if governor is not None:
                governor.release_cells(len(seen) * width)


class SortNode(VectorNode):
    """Blocking sort breaker: ``PSort.sort`` (in memory or external,
    chosen there at run time) over the child's rows, re-batched."""

    def __init__(self, op, child: VectorNode, batch_size: int):
        self.op = op
        self.child = child
        self.batch_size = batch_size

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        rows = op.sort(_flat_rows(self.child, ctx), ctx)
        return rebatch(rows, len(op.schema), self.batch_size)


class UnionAllNode(VectorNode):
    def __init__(self, op, children: list[VectorNode]):
        self.op = op
        self.child_nodes = children

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        counters = ctx.counters
        for child in self.child_nodes:
            for batch in child.batches(ctx):
                counters.rows += batch.length
                yield batch


class HashAggregateNode(VectorNode):
    """GROUP BY / scalar aggregation breaker mirroring ``PHashAggregate``.

    Each input batch is bucketed by key once, then every group's states
    are fed column *slices* — so the specialized states (sum/min/max over
    typed columns) see C-speed operations while group discovery order and
    per-group feed order stay exactly the row engine's.
    """

    def __init__(self, op, child: VectorNode, batch_size: int):
        self.op = op
        self.child = child
        self.batch_size = batch_size
        child_schema = op.child.schema
        self._arg_evaluators = [
            None
            if call.argument is None
            else compile_batch(call.argument, child_schema)
            for call in op.aggregates
        ]
        self._arg_dtypes = [
            DataType.ANY if call.argument is None else call.argument.infer(child_schema)
            for call in op.aggregates
        ]
        self._raw_keys = raw_group_keys_ok(child_schema, op._key_positions)

    def _new_states(self) -> list:
        return [
            make_state(call, dtype)
            for call, dtype in zip(self.op.aggregates, self._arg_dtypes)
        ]

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        counters = ctx.counters
        width = len(op.schema)
        evaluators = self._arg_evaluators

        if not op.keys:
            states = self._new_states()
            for batch in self.child.batches(ctx):
                n = batch.length
                for state, evaluate in zip(states, evaluators):
                    if evaluate is None:
                        state.update_n(n)
                    else:
                        state.update(evaluate(batch, ctx))
            counters.rows += 1
            yield rows_batch([tuple(state.result() for state in states)], width)
            return

        key_positions = op._key_positions
        single_key = len(key_positions) == 1
        raw = self._raw_keys
        groups: dict = {}  # key -> (key_values, states)
        for batch in self.child.batches(ctx):
            n = batch.length
            counters.hash_inserts += n
            key_columns = [batch.column(p) for p in key_positions]
            if single_key:
                keys = (
                    key_columns[0]
                    if raw
                    else [grouping_key((v,)) for v in key_columns[0]]
                )
            else:
                zipped = list(zip(*key_columns))
                keys = zipped if raw else [grouping_key(kv) for kv in zipped]
            # Bucket row indices per key (first-appearance order).
            buckets: dict = {}
            for i, key in enumerate(keys):
                found = buckets.get(key)
                if found is None:
                    buckets[key] = [i]
                else:
                    found.append(i)
            arg_columns = [
                None if evaluate is None else evaluate(batch, ctx)
                for evaluate in evaluators
            ]
            for key, indices in buckets.items():
                entry = groups.get(key)
                if entry is None:
                    first = indices[0]
                    entry = (
                        tuple(column[first] for column in key_columns),
                        self._new_states(),
                    )
                    groups[key] = entry
                states = entry[1]
                whole = len(indices) == n
                count = len(indices)
                for state, column in zip(states, arg_columns):
                    if column is None:
                        state.update_n(count)
                    else:
                        state.update(
                            column if whole else [column[i] for i in indices]
                        )

        out: list = []
        size = self.batch_size
        for key_values, states in groups.values():
            counters.rows += 1
            out.append(key_values + tuple(state.result() for state in states))
            if len(out) >= size:
                yield rows_batch(out, width)
                out = []
        if out:
            yield rows_batch(out, width)


class GApplyNode(VectorNode):
    """GApply breaker: ``PGApply.partition`` over the outer batches'
    rows (in memory or spilling, chosen there at run time), vector
    per-group plans, counter-for-counter faithful to ``PGApply``."""

    def __init__(self, op, outer: VectorNode, per_group: VectorNode, batch_size: int):
        self.op = op
        self.outer = outer
        self.per_group = per_group
        self.batch_size = batch_size
        #: Hash-partition dict key: the raw key tuple where it is
        #: equivalent to ``grouping_key`` (one call per row, not three).
        self._key_of = (
            op._key_getter
            if raw_group_keys_ok(op.outer.schema, op._key_positions)
            else None
        )

    # -- execution phase -------------------------------------------------

    def _run(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        op = self.op
        counters = ctx.counters
        partitions = op.partition(
            _flat_rows(self.outer, ctx), ctx, self._key_of
        )
        variable = op.group_variable
        record = None if ctx.metrics is None else ctx.metrics.record_for(op)
        tracer = ctx.tracer
        width = len(op.schema)
        per_group = self.per_group
        relations = dict(ctx.relations)
        group_ctx = ExecutionContext(
            ctx.counters, ctx.scalars, relations, ctx.metrics, ctx.tracer,
            ctx.governor,
        )
        size = self.batch_size
        volcano_per_group = op.per_group
        pending: list = []
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
                if len(group_rows) < VECTOR_GROUP_MIN_ROWS:
                    # Tiny group: the batch machinery's fixed per-execution
                    # cost exceeds its savings, and both engines count work
                    # identically by construction — run the row iterators.
                    for pgq_row in volcano_per_group.execute(group_ctx):
                        emitted += 1
                        counters.rows += 1
                        pending.append(key_values + pgq_row)
                else:
                    for batch in per_group.batches(group_ctx):
                        pgq_rows = batch.rows()
                        emitted += len(pgq_rows)
                        counters.rows += len(pgq_rows)
                        pending.extend(key_values + row for row in pgq_rows)
                if record is not None:
                    record.groups_formed += 1
                    if not emitted:
                        record.empty_groups_skipped += 1
                if span is not None:
                    tracer.end(span, rows_out=emitted)
                if len(pending) >= size:
                    yield rows_batch(pending, width)
                    pending = []
            if pending:
                yield rows_batch(pending, width)
        finally:
            # Same reason as ``PGApply._execute``: an error from a
            # per-group plan pins the suspended partition generator, so
            # its spill state must be reclaimed explicitly.
            partitions.close()
