"""Pipeline compiler: physical plan → vector node tree.

:func:`compile_plan` walks a planner-produced physical operator tree
bottom-up. Streaming operators extend the current :class:`Pipeline`;
pipeline breakers (sort, aggregate, GApply, union) become dedicated
:class:`~repro.execution.vector.nodes.VectorNode` breakers whose inputs
are themselves compiled nodes. Joins pipeline their *probe* side and
compile the build side as a separate node drained when the stage binds.

Fallback policy (see DESIGN.md §12.3): any operator without a batched
implementation roots its whole subtree in a
:class:`~repro.execution.vector.nodes.VolcanoSource`, which runs the
row-at-a-time iterators unchanged and re-batches at the boundary. The
compiler records a :class:`FallbackNote` per fallback, and EXPLAIN lists
them, so callers can see how much of a plan actually vectorized. Every
fallback is decided here, at compile time:

* correlated ``PApply`` (per-row rebinding of scalar parameters) and
  ``PExists`` (early-termination semantics are pull-based);
* ``PNestedLoopJoin`` (a row-ordered operator the planner only picks
  for small inputs or when hash joins are disabled);
* anything this compiler has never heard of — new operators are
  correct-by-default, fast once someone adds a batched form.

Nothing changes engines at run time. Three breakers hand their child's
rows to a row-iterator *phase* the physical operator owns — ``PSort.sort``,
``PDistinct.external_distinct`` (only under a memory budget) and
``PGApply.partition`` — while the subtrees below them stay compiled; and a
GApply group under ``VECTOR_GROUP_MIN_ROWS`` rows runs its per-group plan
on the iterators (none of these is a fallback note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.execution.aggregates import PHashAggregate
from repro.execution.apply import PApply, PExists
from repro.execution.base import PhysicalOperator, PMaterialized
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
from repro.execution.indexscan import PIndexNestedLoopJoin, PIndexSeek
from repro.execution.joins import PHashJoin, PNestedLoopJoin
from repro.execution.scans import PGroupScan, PTableScan
from repro.storage.table import Row

from repro.execution.vector.batch import DEFAULT_BATCH_SIZE
from repro.execution.vector.nodes import (
    DistinctNode,
    EmptyNode,
    GApplyNode,
    GroupScanSource,
    HashAggregateNode,
    IndexSeekSource,
    MaterializedSource,
    SortNode,
    TableScanSource,
    UnionAllNode,
    VectorNode,
    VolcanoSource,
)
from repro.execution.vector.pipeline import (
    AliasStage,
    ApplyStage,
    FilterStage,
    HashJoinStage,
    IndexNLJoinStage,
    LimitStage,
    Pipeline,
    ProjectStage,
    PruneStage,
    Stage,
)


@dataclass(frozen=True)
class FallbackNote:
    """One subtree the compiler routed through the Volcano iterators."""

    label: str
    reason: str


@dataclass
class VectorPlan:
    """A compiled vector plan, ready to run against an ExecutionContext."""

    root: VectorNode
    physical: PhysicalOperator
    fallbacks: tuple[FallbackNote, ...]
    batch_size: int = DEFAULT_BATCH_SIZE

    @property
    def fully_vectorized(self) -> bool:
        return not self.fallbacks

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        for batch in self.root.batches(ctx):
            yield from batch.rows()

    def run(self, ctx: ExecutionContext) -> list[Row]:
        return list(self.rows(ctx))


def compile_plan(
    physical: PhysicalOperator, batch_size: int = DEFAULT_BATCH_SIZE
) -> VectorPlan:
    """Compile a physical plan into a vector node tree (always succeeds;
    unsupported subtrees run under Volcano)."""
    compiler = _Compiler(batch_size)
    root = compiler.compile(physical)
    return VectorPlan(root, physical, tuple(compiler.fallbacks), batch_size)


class _Compiler:
    def __init__(self, batch_size: int):
        self.batch_size = batch_size
        self.fallbacks: list[FallbackNote] = []

    def fallback(self, op: PhysicalOperator, reason: str) -> VolcanoSource:
        self.fallbacks.append(FallbackNote(op.label(), reason))
        return VolcanoSource(op, self.batch_size)

    def extend(self, node: VectorNode, stage: Stage) -> Pipeline:
        if isinstance(node, Pipeline):
            return node.extend(stage)
        return Pipeline(node, [stage])

    def compile(self, op: PhysicalOperator) -> VectorNode:
        size = self.batch_size
        # -- leaves ----------------------------------------------------
        if isinstance(op, PTableScan):
            return TableScanSource(op, size)
        if isinstance(op, PGroupScan):
            return GroupScanSource(op, size)
        if isinstance(op, PMaterialized):
            return MaterializedSource(op, size)
        if isinstance(op, PIndexSeek):
            return IndexSeekSource(op, size)
        # -- fused streaming stages ------------------------------------
        if isinstance(op, PFilter):
            return self.extend(self.compile(op.child), FilterStage(op))
        if isinstance(op, PProject):
            return self.extend(self.compile(op.child), ProjectStage(op))
        if isinstance(op, (PPrune, PRemap)):
            return self.extend(self.compile(op.child), PruneStage(op))
        if isinstance(op, PAlias):
            return self.extend(self.compile(op.child), AliasStage(op))
        if isinstance(op, PLimit):
            if op.limit <= 0:
                # The child subtree is never instantiated, matching the
                # lazy Volcano cascade (child records stay all-zero).
                return EmptyNode(op)
            return self.extend(self.compile(op.child), LimitStage(op))
        if isinstance(op, PHashJoin):
            build_child = op.left if op.build_left else op.right
            probe_child = op.right if op.build_left else op.left
            build_node = self.compile(build_child)
            return self.extend(
                self.compile(probe_child), HashJoinStage(op, build_node)
            )
        if isinstance(op, PIndexNestedLoopJoin):
            return self.extend(self.compile(op.outer), IndexNLJoinStage(op))
        if isinstance(op, PApply):
            if op.bindings:
                return self.fallback(op, "correlated apply")
            inner_node = self.compile(op.inner)
            return self.extend(
                self.compile(op.outer), ApplyStage(op, inner_node)
            )
        # -- breakers --------------------------------------------------
        if isinstance(op, PSort):
            return SortNode(op, self.compile(op.child), size)
        if isinstance(op, PDistinct):
            return DistinctNode(op, self.compile(op.child), size)
        if isinstance(op, PUnionAll):
            return UnionAllNode(op, [self.compile(c) for c in op.inputs])
        if isinstance(op, PHashAggregate):
            return HashAggregateNode(op, self.compile(op.child), size)
        if isinstance(op, PGApply):
            return GApplyNode(
                op, self.compile(op.outer), self.compile(op.per_group), size
            )
        # -- Volcano-only operators ------------------------------------
        if isinstance(op, PExists):
            return self.fallback(op, "exists probe")
        if isinstance(op, PNestedLoopJoin):
            return self.fallback(op, "nested-loop join")
        return self.fallback(op, f"no batched implementation: {type(op).__name__}")
