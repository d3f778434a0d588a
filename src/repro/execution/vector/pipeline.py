"""Fused pipelines: straight-line operator chains over one batch loop.

A :class:`Pipeline` couples a source :class:`~repro.execution.vector.
nodes.VectorNode` with a list of *stages* — the batched forms of the
streaming operators (filter, project, prune, remap, alias, limit,
hash-join probe, index-join probe, uncorrelated apply). Each
input batch flows through every stage in one pass; batches that lose all
their rows drop out early, and an exhausted stage (LIMIT satisfied)
stops the whole pipeline after its final batch is flushed downstream.

Instrumentation mirrors the Volcano chain per operator:

* each stage's operator record gets ``executions += 1`` when the
  pipeline starts (matching the first-pull cascade of nested iterators),
  ``rows_out`` per emitted batch, and ``elapsed_ns`` for its own apply
  time (exclusive, where Volcano's is inclusive — elapsed is excluded
  from snapshot equivalence for exactly this kind of reason);
* deterministic :class:`~repro.execution.context.Counters` fields are
  updated with the same totals as the row loop, one add per batch;
* the governor is checked once at pipeline start and ticked per batch
  per stage, the batched analogue of per-row ticks at every level.

Stage *specs* hold everything derivable from the plan (compiled
predicates, positions, build-side nodes); :meth:`Stage.bind` produces
the per-execution state (hash tables, limit countdowns), so a
pipeline inside a GApply per-group plan re-binds cleanly for every
group, just as Volcano re-instantiates its iterator chain.
"""

from __future__ import annotations

import operator
from typing import Iterator

from repro.execution.context import ExecutionContext
from repro.storage.types import key_function, raw_keys

from repro.execution.vector.batch import ColumnBatch
from repro.execution.vector.exprs import compile_batch
from repro.execution.vector.nodes import VectorNode, rows_batch


class Stage:
    """Compile-time spec for one fused operator. Stateless stages bind to
    themselves; stateful ones return a fresh bound object per execution."""

    __slots__ = ("op",)

    exhausted = False

    def bind(self, ctx: ExecutionContext) -> "Stage":
        return self

    def apply(self, batch: ColumnBatch, ctx: ExecutionContext):
        raise NotImplementedError

    def finish(self, ctx: ExecutionContext) -> None:
        return None


class Pipeline(VectorNode):
    """A source plus fused stages; itself a node, so breakers compose."""

    def __init__(self, source: VectorNode, stages: list[Stage]):
        self.source = source
        self.stages = stages
        self.op = stages[-1].op if stages else source.op

    def extend(self, stage: Stage) -> "Pipeline":
        return type(self)(self.source, self.stages + [stage])

    def batches(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        governor = ctx.governor
        if governor is not None:
            governor.check()
        metrics = ctx.metrics
        records = None
        if metrics is not None:
            records = []
            executions = self._executions(ctx)
            for spec in self.stages:
                record = metrics.record_for(spec.op)
                record.executions += executions
                records.append(record)
        clock = None if metrics is None else metrics.clock
        bound = [spec.bind(ctx) for spec in self.stages]
        try:
            for batch in self.source.batches(ctx):
                out = batch
                stop = False
                for i, stage in enumerate(bound):
                    if clock is None:
                        out = stage.apply(out, ctx)
                    else:
                        start = clock()
                        out = stage.apply(out, ctx)
                        records[i].elapsed_ns += clock() - start
                    if stage.exhausted:
                        stop = True
                    if out is None:
                        break
                    if records is not None:
                        records[i].rows_out += out.length
                    if governor is not None:
                        governor.tick(out.length)
                if out is not None:
                    yield out
                if stop:
                    return
        finally:
            for stage in bound:
                stage.finish(ctx)


# ----------------------------------------------------------------------
# Stateless streaming stages
# ----------------------------------------------------------------------

class FilterStage(Stage):
    __slots__ = ("_predicate",)

    def __init__(self, op):
        self.op = op
        self._predicate = compile_batch(op.predicate, op.child.schema)

    def apply(self, batch, ctx):
        counters = ctx.counters
        n = batch.length
        counters.comparisons += n
        if ctx.metrics is not None:
            ctx.metrics.record_for(self.op).comparisons += n
        values = self._predicate(batch, ctx)
        keep = [i for i, v in enumerate(values) if v is True]
        kept = len(keep)
        counters.rows += kept
        if kept == 0:
            return None
        if kept == n:
            return batch
        return batch.select(keep)


class ProjectStage(Stage):
    __slots__ = ("_evaluators",)

    def __init__(self, op):
        self.op = op
        child_schema = op.child.schema
        self._evaluators = [
            compile_batch(expr, child_schema) for expr, _ in op.items
        ]

    def apply(self, batch, ctx):
        n = batch.length
        ctx.counters.rows += n
        columns = [evaluate(batch, ctx) for evaluate in self._evaluators]
        out = ColumnBatch(columns=columns, length=n)
        out.segs = batch.segs
        return out


class PruneStage(Stage):
    """Shared by PPrune and PRemap: positional column selection."""

    __slots__ = ("_positions", "_getter")

    def __init__(self, op):
        self.op = op
        self._positions = op._positions
        self._getter = op._getter

    def apply(self, batch, ctx):
        n = batch.length
        ctx.counters.rows += n
        if not batch.has_rows:
            return batch.project_columns(self._positions)
        rows = batch.rows()
        positions = self._positions
        if len(positions) == 1:
            position = positions[0]
            out = ColumnBatch(columns=[[row[position] for row in rows]], length=n)
        else:
            getter = self._getter
            out = ColumnBatch(rows=[getter(row) for row in rows], length=n)
        out.segs = batch.segs
        return out


class AliasStage(Stage):
    """Identity on rows (no ``counters.rows``); exists so the alias
    operator's metrics record sees its executions/rows_out as in Volcano."""

    __slots__ = ()

    def __init__(self, op):
        self.op = op

    def apply(self, batch, ctx):
        return batch


# ----------------------------------------------------------------------
# Stateful streaming stages
# ----------------------------------------------------------------------

class LimitStage(Stage):
    """Spec for ``PLimit`` with a positive limit (``limit <= 0`` plans
    compile to an EmptyNode instead)."""

    __slots__ = ()

    def __init__(self, op):
        self.op = op

    def bind(self, ctx):
        return _BoundLimit(self.op.limit)


class _BoundLimit:
    __slots__ = ("remaining", "exhausted")

    def __init__(self, limit: int):
        self.remaining = limit
        self.exhausted = False

    def apply(self, batch, ctx):
        n = batch.length
        if n < self.remaining:
            self.remaining -= n
            ctx.counters.rows += n
            return batch
        k = self.remaining
        self.remaining = 0
        self.exhausted = True
        ctx.counters.rows += k
        return batch if k == n else batch.head(k)

    def finish(self, ctx):
        return None


# ----------------------------------------------------------------------
# Join probe stages
# ----------------------------------------------------------------------

class HashJoinStage(Stage):
    """Hash-join with the build side drained at bind time (matching the
    Volcano operator, which builds on its first pull) and the probe side
    fused into the pipeline."""

    __slots__ = ("build_node", "residual_batch")

    def __init__(self, op, build_node: VectorNode):
        from repro.algebra.operators import JoinKind

        self.op = op
        self.build_node = build_node
        # Inner joins evaluate the residual over the whole candidate batch
        # (same rows kept, no per-candidate counter in the row engine to
        # preserve). Semi/anti keep the scalar evaluator: their first-match
        # break means Volcano may never evaluate later candidates, and a
        # batched evaluation could surface an error Volcano never hits.
        self.residual_batch = (
            None
            if op.residual is None or op.kind != JoinKind.INNER
            else compile_batch(
                op.residual, op.left.schema.concat(op.right.schema)
            )
        )

    def bind(self, ctx):
        return _BoundHashJoin(self.op, self.build_node, self.residual_batch, ctx)


def _key_of(schema, positions: tuple, raw: bool):
    """A per-row key extractor returning None for NULL-containing keys:
    the value tuple when both sides are raw-keyed, else the key function
    of this side's column types (keys of equal values agree across types).

    ``raw`` single-key extraction is inlined at the call sites (it is just
    ``row[p]``); this covers the multi-key, keyed and keyless cases.
    """
    if not positions:
        # A cross or theta join: every row shares the empty key.
        def key_of(row):
            return ()
    elif raw:
        getter = operator.itemgetter(*positions)

        def key_of(row):
            values = getter(row)
            return None if None in values else values
    else:
        key = key_function(schema.types(positions))

        def key_of(row):
            values = tuple(row[i] for i in positions)
            if any(v is None for v in values):
                return None
            return key(values)
    return key_of


class _BoundHashJoin:
    __slots__ = (
        "op", "buckets", "residual", "residual_batch", "semi", "anti",
        "build_left", "width", "single_position", "probe_key_of",
    )

    exhausted = False

    def __init__(self, op, build_node: VectorNode, residual_batch, ctx):
        from repro.algebra.operators import JoinKind

        self.op = op
        self.semi = op.kind == JoinKind.SEMI
        self.anti = op.kind == JoinKind.ANTI
        self.build_left = op.build_left
        self.residual = op._evaluate_residual
        self.residual_batch = residual_batch
        self.width = len(op.schema)
        if op.build_left:
            build, build_positions = op.left, op._left_positions
            probe, probe_positions = op.right, op._right_positions
        else:
            build, build_positions = op.right, op._right_positions
            probe, probe_positions = op.left, op._left_positions
        build_width = len(build.schema)
        raw = raw_keys(
            build.schema.types(build_positions) + probe.schema.types(probe_positions)
        )
        # The dominant case — one raw-keyed column — probes with a bare
        # row slot, no tuple building at all.
        single = raw and len(build_positions) == 1
        self.single_position = probe_positions[0] if single else None
        self.probe_key_of = (
            None if single else _key_of(probe.schema, probe_positions, raw)
        )
        counters = ctx.counters
        buckets: dict = {}
        buckets_get = buckets.get
        inserted = 0
        if single:
            position = build_positions[0]
            for batch in build_node.batches(ctx):
                for row in batch.rows():
                    key = row[position]
                    if key is None:
                        continue
                    inserted += 1
                    entry = buckets_get(key)
                    if entry is None:
                        buckets[key] = [row]
                    else:
                        entry.append(row)
        else:
            build_key_of = _key_of(build.schema, build_positions, raw)
            for batch in build_node.batches(ctx):
                for row in batch.rows():
                    key = build_key_of(row)
                    if key is None:
                        continue
                    inserted += 1
                    entry = buckets_get(key)
                    if entry is None:
                        buckets[key] = [row]
                    else:
                        entry.append(row)
        counters.hash_inserts += inserted
        counters.buffered_cells += inserted * build_width
        self.buckets = buckets

    def apply(self, batch, ctx):
        counters = ctx.counters
        buckets_get = self.buckets.get
        residual = self.residual
        position = self.single_position
        key_of = self.probe_key_of
        out: list = []
        emit = out.append
        probes = 0
        rows = batch.rows()
        if self.build_left:
            # Inner join, probe side is the right child; output order is
            # still left ++ right. NULL probe keys are silently dropped.
            for right_row in rows:
                key = (
                    right_row[position]
                    if position is not None
                    else key_of(right_row)
                )
                if key is None:
                    continue
                probes += 1
                matches = buckets_get(key)
                if matches is not None:
                    for left_row in matches:
                        emit(left_row + right_row)
            if residual is not None and out:
                out = self._filter_residual(out, ctx)
        elif not self.semi and not self.anti:
            # Inner join: emit every key match, then (if present) run the
            # residual over the whole candidate batch at once.
            if position is not None:
                for left_row in rows:
                    key = left_row[position]
                    if key is None:
                        continue
                    probes += 1
                    matches = buckets_get(key)
                    if matches is not None:
                        for right_row in matches:
                            emit(left_row + right_row)
            else:
                for left_row in rows:
                    key = key_of(left_row)
                    if key is None:
                        continue
                    probes += 1
                    matches = buckets_get(key)
                    if matches is not None:
                        for right_row in matches:
                            emit(left_row + right_row)
            if residual is not None and out:
                out = self._filter_residual(out, ctx)
        else:
            semi = self.semi
            anti = self.anti
            for left_row in rows:
                key = (
                    left_row[position]
                    if position is not None
                    else key_of(left_row)
                )
                if key is None:
                    if anti:
                        emit(left_row)
                    continue
                probes += 1
                matches = buckets_get(key, ())
                matched = False
                for right_row in matches:
                    combined = left_row + right_row
                    if residual is None or residual(combined, ctx) is True:
                        matched = True
                        if semi or anti:
                            break
                        emit(combined)
                if semi and matched:
                    emit(left_row)
                elif anti and not matched:
                    emit(left_row)
        counters.join_probes += probes
        if not out:
            return None
        counters.rows += len(out)
        return rows_batch(out, self.width)

    def _filter_residual(self, candidates: list, ctx) -> list:
        evaluate = self.residual_batch
        if evaluate is None:
            residual = self.residual
            return [c for c in candidates if residual(c, ctx) is True]
        flags = evaluate(rows_batch(candidates, self.width), ctx)
        return [c for c, flag in zip(candidates, flags) if flag is True]

    def finish(self, ctx):
        return None


class IndexNLJoinStage(Stage):
    __slots__ = ("_key_of", "_raw_position", "residual_batch")

    def __init__(self, op):
        self.op = op
        positions = op._outer_positions
        # Single raw-keyed column on both sides: the index buckets are
        # keyed by the bare singleton tuple, so probe the bucket dict with
        # one. Otherwise the outer side's key function builds the key.
        # NULL probes find no bucket (NULL keys are never inserted),
        # matching lookup()'s empty list.
        index = op.index
        raw = raw_keys(
            op.outer.schema.types(positions) + index.table.schema.types(index._positions)
        )
        self._raw_position = (
            positions[0]
            if raw and len(positions) == 1 and index.is_single_column
            else None
        )
        self._key_of = (
            None
            if self._raw_position is not None
            else _key_of(op.outer.schema, positions, raw)
        )
        # The Volcano operator evaluates the residual for every candidate
        # (no first-match break), so batching the evaluation keeps both
        # the kept rows and the comparisons total identical.
        self.residual_batch = (
            None
            if op.residual is None
            else compile_batch(op.residual, op.schema)
        )

    def apply(self, batch, ctx):
        op = self.op
        counters = ctx.counters
        outer_is_left = op.outer_is_left
        out: list = []
        emit = out.append
        rows = batch.rows()
        position = self._raw_position
        if position is not None:
            buckets_get = op.index._ensure_built().buckets.get
            if outer_is_left:
                for outer_row in rows:
                    matches = buckets_get((outer_row[position],))
                    if matches is not None:
                        for inner_row in matches:
                            emit(outer_row + inner_row)
            else:
                for outer_row in rows:
                    matches = buckets_get((outer_row[position],))
                    if matches is not None:
                        for inner_row in matches:
                            emit(inner_row + outer_row)
        else:
            buckets_get = op.index._ensure_built().buckets.get
            key_of = self._key_of
            for outer_row in rows:
                key = key_of(outer_row)
                for inner_row in () if key is None else buckets_get(key, ()):
                    emit(
                        outer_row + inner_row
                        if outer_is_left
                        else inner_row + outer_row
                    )
        n = batch.length
        counters.join_probes += n
        if ctx.metrics is not None:
            ctx.metrics.record_for(op).index_probes += n
        if out and self.residual_batch is not None:
            counters.comparisons += len(out)
            flags = self.residual_batch(rows_batch(out, len(op.schema)), ctx)
            out = [c for c, flag in zip(out, flags) if flag is True]
        if not out:
            return None
        counters.rows += len(out)
        return rows_batch(out, len(op.schema))


class ApplyStage(Stage):
    """Uncorrelated Apply: the inner plan runs once (on the first probe
    batch, mirroring Volcano's first-outer-row execution) and its rows
    are joined to every outer row. Correlated Apply falls back to
    Volcano at compile time."""

    __slots__ = ("inner_node", "zero_width", "outer_width", "width")

    def __init__(self, op, inner_node: VectorNode):
        self.op = op
        self.inner_node = inner_node
        self.zero_width = len(op.inner.schema) == 0
        self.outer_width = len(op.outer.schema)
        self.width = len(op.schema)

    def bind(self, ctx):
        return _BoundApply(self)


class _BoundApply:
    __slots__ = ("spec", "cached")

    exhausted = False

    def __init__(self, spec: ApplyStage):
        self.spec = spec
        self.cached = None

    def apply(self, batch, ctx):
        spec = self.spec
        counters = ctx.counters
        cached = self.cached
        if cached is None:
            counters.inner_executions += 1
            cached = []
            for inner_batch in spec.inner_node.batches(ctx):
                cached.extend(inner_batch.rows())
            self.cached = cached
        k = len(cached)
        if k == 0:
            return None
        n = batch.length
        counters.rows += n * k
        if spec.zero_width:
            if k == 1:
                return batch
            indices = [i for i in range(n) for _ in range(k)]
            return batch.select(indices)
        if k == 1:
            inner_row = cached[0]
            columns = [batch.column(p) for p in range(spec.outer_width)]
            columns.extend([value] * n for value in inner_row)
            return ColumnBatch(columns=columns, length=n)
        rows = batch.rows()
        out = [row + inner_row for row in rows for inner_row in cached]
        return rows_batch(out, spec.width)

    def finish(self, ctx):
        return None
