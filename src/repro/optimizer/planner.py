"""Lowering: logical operator trees -> executable physical plans.

The lowering is deliberately simple and deterministic; plan *quality* comes
from the logical-level transformation rules (the paper's focus), not from
physical enumeration:

* joins with at least one equality conjunct become hash joins (residual
  conjuncts are kept as a post-filter on the combined row);
* other joins become nested-loop joins;
* GROUP BY becomes a hash aggregate;
* GApply's partitioning strategy (hash or sort) is a planner option,
  mirroring the paper's two partition-phase implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    conjoin,
    conjuncts,
)
from repro.algebra.operators import (
    Alias,
    Apply,
    Distinct,
    Exists,
    GApply,
    GroupBy,
    GroupScan,
    Join,
    JoinKind,
    Limit,
    LogicalOperator,
    OrderBy,
    Project,
    Prune,
    Remap,
    Select,
    TableScan,
    Union,
    UnionAll,
)
from repro.errors import PlanError
from repro.execution.aggregates import PHashAggregate
from repro.execution.apply import PApply, PExists
from repro.execution.base import PhysicalOperator
from repro.execution.basic import (
    PAlias,
    PDistinct,
    PLimit,
    PFilter,
    PProject,
    PPrune,
    PRemap,
    PSort,
    PUnionAll,
)
from repro.execution.gapply import HASH_PARTITION, PGApply
from repro.execution.indexscan import PIndexNestedLoopJoin, PIndexSeek
from repro.execution.joins import PHashJoin, PNestedLoopJoin
from repro.execution.scans import PGroupScan, PTableScan
from repro.execution.vector.batch import DEFAULT_BATCH_SIZE
from repro.optimizer.access_paths import choose_join_side, choose_seek
from repro.optimizer.cost import CostModel
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class PlannerOptions:
    """Physical planning knobs.

    ``gapply_partitioning`` selects the paper's partition-phase strategy
    (``"hash"`` or ``"sort"``); benchmarks sweep it as an ablation.
    ``prefer_hash_join`` can be disabled to force nested-loop joins, which
    tests use to check plan-independence of results.

    ``disabled_rules`` names optimizer rules (by their ``Rule.name``) that
    :class:`~repro.api.Database` must leave out of the transformation
    engine; it exists so the differential fuzzer (:mod:`repro.fuzz`) can
    walk the plan space — every rule disabled one at a time, all rules
    off — and assert that results never change. Unknown rule names raise
    at use time.

    Every lowered plan is compiled into batch-at-a-time pipelines
    (:mod:`repro.execution.vector`; operators without a batched form run
    as row-iterator subtrees inside the compiled plan), and
    ``vector_batch_size`` (>= 1) sets the rows-per-batch granularity.
    """

    gapply_partitioning: str = HASH_PARTITION
    prefer_hash_join: bool = True
    use_indexes: bool = True
    #: Force the GApply partition phase to spill to disk once this many
    #: cells are resident (None = spill only under a governor's memory
    #: budget).
    gapply_spill_threshold: int | None = None
    disabled_rules: tuple[str, ...] = ()
    vector_batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        # -1 would make every scan's ``range`` empty (zero rows, silently).
        if self.vector_batch_size < 1:
            raise PlanError(
                f"vector_batch_size must be >= 1, got {self.vector_batch_size}"
            )

    def active_rules(self):
        """The default optimizer rule set minus ``disabled_rules``.

        Returns ``None`` when nothing is disabled so callers can fall back
        to the optimizer's own default (keeping reports comparable).
        """
        if not self.disabled_rules:
            return None
        from repro.optimizer.rules import DEFAULT_RULES, rule_by_name

        for name in self.disabled_rules:
            rule_by_name(name)  # raises KeyError for unknown names
        disabled = set(self.disabled_rules)
        return [rule for rule in DEFAULT_RULES if rule.name not in disabled]


class Planner:
    """Logical-to-physical compiler over a catalog.

    ``for_explain`` stamps every lowered node with the cost model's row
    estimate for its logical source (``est_rows``), which EXPLAIN renders
    (against actual cardinalities under ANALYZE). Estimation walks the
    logical subtree per node, so a plain run does not pay for it.
    """

    def __init__(
        self,
        catalog: Catalog,
        options: PlannerOptions | None = None,
        for_explain: bool = False,
    ):
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self.for_explain = for_explain
        self._cost_model = CostModel(catalog)

    def plan(self, node: LogicalOperator) -> PhysicalOperator:
        method = getattr(self, f"_plan_{type(node).__name__.lower()}", None)
        if method is None:
            raise PlanError(f"no physical lowering for {type(node).__name__}")
        physical = method(node)
        if self.for_explain:
            physical.est_rows = self._estimate_rows(node)
        return physical

    def _estimate_rows(self, node: LogicalOperator) -> float | None:
        """Cost-model row estimate for ``node``, or None if inestimable
        (e.g. a GroupScan outside any GApply binding)."""
        try:
            return self._cost_model.estimate(node).rows
        except Exception:
            return None

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------

    def _plan_tablescan(self, node: TableScan) -> PhysicalOperator:
        table = self.catalog.table(node.table_name)
        return PTableScan(table, node.alias)

    def _plan_groupscan(self, node: GroupScan) -> PhysicalOperator:
        return PGroupScan(node.variable, node.group_schema)

    # ------------------------------------------------------------------
    # Unary operators
    # ------------------------------------------------------------------

    def _plan_select(self, node: Select) -> PhysicalOperator:
        if self.options.use_indexes:
            seek = choose_seek(node, self.catalog)
            if seek is not None:
                return PIndexSeek(
                    seek.table,
                    seek.index,
                    seek.alias,
                    seek.equal_values,
                    seek.low,
                    seek.high,
                    seek.low_inclusive,
                    seek.high_inclusive,
                    seek.residual,
                )
        return PFilter(self.plan(node.child), node.predicate)

    def _plan_project(self, node: Project) -> PhysicalOperator:
        return PProject(self.plan(node.child), node.items)

    def _plan_prune(self, node: Prune) -> PhysicalOperator:
        return PPrune(self.plan(node.child), node.references)

    def _plan_alias(self, node: Alias) -> PhysicalOperator:
        return PAlias(self.plan(node.child), node.name)

    def _plan_remap(self, node: Remap) -> PhysicalOperator:
        return PRemap(self.plan(node.child), node.items)

    def _plan_limit(self, node: Limit) -> PhysicalOperator:
        return PLimit(self.plan(node.child), node.count)

    def _plan_distinct(self, node: Distinct) -> PhysicalOperator:
        return PDistinct(self.plan(node.child))

    def _plan_orderby(self, node: OrderBy) -> PhysicalOperator:
        return PSort(self.plan(node.child), node.items)

    def _plan_groupby(self, node: GroupBy) -> PhysicalOperator:
        return PHashAggregate(self.plan(node.child), node.keys, node.aggregates)

    def _plan_exists(self, node: Exists) -> PhysicalOperator:
        return PExists(self.plan(node.child), node.negated)

    # ------------------------------------------------------------------
    # N-ary operators
    # ------------------------------------------------------------------

    def _plan_unionall(self, node: UnionAll) -> PhysicalOperator:
        return PUnionAll([self.plan(child) for child in node.inputs])

    def _plan_union(self, node: Union) -> PhysicalOperator:
        return PDistinct(PUnionAll([self.plan(child) for child in node.inputs]))

    def _plan_join(self, node: Join) -> PhysicalOperator:
        left = self.plan(node.left)
        right = self.plan(node.right)
        if node.kind == JoinKind.CROSS or node.predicate is None:
            return PNestedLoopJoin(left, right, node.predicate, JoinKind.INNER)
        pairs = node.equijoin_pairs() if self.options.prefer_hash_join else []
        if not pairs:
            return PNestedLoopJoin(left, right, node.predicate, node.kind)
        left_keys = [pair[0] for pair in pairs]
        right_keys = [pair[1] for pair in pairs]
        residual = self._residual_predicate(node, pairs)
        left_rows = self._estimate_rows(node.left)
        right_rows = self._estimate_rows(node.right)
        estimated = left_rows is not None and right_rows is not None

        if (
            self.options.use_indexes
            and node.kind == JoinKind.INNER
            and estimated
        ):
            indexed = self._try_index_join(
                node, left_keys, right_keys, residual, left_rows, right_rows
            )
            if indexed is not None:
                return indexed

        build_left = False
        if node.kind == JoinKind.INNER and estimated:
            # Build the hash table on the estimated-smaller input.
            build_left = left_rows < right_rows
        return PHashJoin(
            left, right, left_keys, right_keys, residual, node.kind, build_left
        )

    def _try_index_join(
        self, node, left_keys, right_keys, residual, left_rows, right_rows
    ):
        """Lower to an index nested-loop join when one side is an indexed
        base table and the driving side is substantially smaller."""
        # Drive from the left, look up into the right.
        right_side = choose_join_side(node.right, right_keys, self.catalog)
        if right_side is not None:
            matches = max(
                1.0, right_rows / max(1, right_side.index.distinct_key_count())
            )
            inlj_cost = left_rows * (1.0 + matches)
            hash_cost = 1.5 * right_rows + left_rows
            if inlj_cost < hash_cost:
                return PIndexNestedLoopJoin(
                    self.plan(node.left),
                    right_side.table,
                    right_side.index,
                    left_keys,
                    right_side.alias,
                    conjoin([residual, right_side.filter_predicate]),
                    outer_is_left=True,
                )
        # Drive from the right, look up into the left.
        left_side = choose_join_side(node.left, left_keys, self.catalog)
        if left_side is not None:
            matches = max(
                1.0, left_rows / max(1, left_side.index.distinct_key_count())
            )
            inlj_cost = right_rows * (1.0 + matches)
            hash_cost = 1.5 * left_rows + right_rows
            if inlj_cost < hash_cost:
                return PIndexNestedLoopJoin(
                    self.plan(node.right),
                    left_side.table,
                    left_side.index,
                    right_keys,
                    left_side.alias,
                    conjoin([residual, left_side.filter_predicate]),
                    outer_is_left=False,
                )
        return None

    @staticmethod
    def _residual_predicate(node: Join, pairs: list[tuple[str, str]]):
        """Conjuncts of the join predicate not covered by the hash keys."""
        used = set()
        for left_ref, right_ref in pairs:
            used.add((left_ref, right_ref))
            used.add((right_ref, left_ref))
        remaining = []
        for conjunct in conjuncts(node.predicate):
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
                and (conjunct.left.name, conjunct.right.name) in used
            ):
                continue
            remaining.append(conjunct)
        return conjoin(remaining)

    def _plan_apply(self, node: Apply) -> PhysicalOperator:
        return PApply(self.plan(node.outer), self.plan(node.inner), node.bindings)

    def _plan_gapply(self, node: GApply) -> PhysicalOperator:
        return PGApply(
            self.plan(node.outer),
            node.grouping_columns,
            self.plan(node.per_group),
            node.group_variable,
            self.options.gapply_partitioning,
            spill_threshold=self.options.gapply_spill_threshold,
        )


def plan_physical(
    node: LogicalOperator,
    catalog: Catalog,
    options: PlannerOptions | None = None,
) -> PhysicalOperator:
    """Convenience wrapper: lower ``node`` against ``catalog``."""
    return Planner(catalog, options).plan(node)
