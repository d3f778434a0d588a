"""Lowering: logical operator trees -> executable physical plans.

Plan *quality* comes from the logical-level transformation rules (the
paper's focus). Lowering is deterministic, and each physical choice it
makes is the one the cost model priced when it ranked the logical plans:

* a join with at least one equality conjunct runs the way
  :meth:`~repro.optimizer.cost.CostModel.join_method` chose: a hash join
  or, for an inner join with an indexed base-table input, an index
  nested-loop join driven by the other input; conjuncts the keys do not
  cover are kept as a residual filter on the combined row. Inside a
  GApply's per-group plan the choice is made at the average group size,
  as the optimizer priced it;
* a cross or theta join is a hash join on the empty key, its whole
  condition the residual; every hash join of an inner (or cross) join
  builds on the estimated-smaller input;
* a selection on an indexed base table becomes an index seek
  (:func:`~repro.optimizer.access_paths.choose_seek`, which the cost model
  prices too);
* GROUP BY becomes a hash aggregate;
* GApply partitions by hashing in memory and by an external sort under a
  spill threshold (``gapply_spill_threshold`` or the governor's budget),
  the paper's two partition-phase implementations.

Every lowered node carries the cost model's row estimate for its logical
source (``est_rows``), which EXPLAIN renders.
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
from repro.execution.gapply import PGApply
from repro.execution.indexscan import PIndexNestedLoopJoin, PIndexSeek
from repro.execution.joins import PHashJoin
from repro.execution.scans import PGroupScan, PTableScan
from repro.execution.vector.batch import DEFAULT_BATCH_SIZE
from repro.optimizer.access_paths import choose_seek
from repro.optimizer.cost import DEFAULT_GROUP_ROWS, INDEX_INTO_RIGHT, CostModel
from repro.storage.catalog import Catalog


@dataclass(frozen=True)
class PlannerOptions:
    """Physical planning knobs.

    ``use_indexes`` can be disabled to force hash joins and filtered
    scans, which tests use to check plan-independence of results.

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

    One planner's cost model estimates each logical node once; the join
    methods and the ``est_rows`` stamps both come from those estimates.
    Inside a GApply's per-group plan both the join method and the
    ``est_rows`` stamps come from the average group size the optimizer
    priced that plan at (``CostModel.groups``), not the default 16.
    """

    def __init__(self, catalog: Catalog, options: PlannerOptions | None = None):
        self.catalog = catalog
        self.options = options or PlannerOptions()
        self._cost_model = CostModel(catalog)
        #: The group size the subtree being lowered was priced at.
        self._group_rows = DEFAULT_GROUP_ROWS

    def plan(self, node: LogicalOperator) -> PhysicalOperator:
        method = getattr(self, f"_plan_{type(node).__name__.lower()}", None)
        if method is None:
            raise PlanError(f"no physical lowering for {type(node).__name__}")
        physical = method(node)
        physical.est_rows = self._cost_model.estimate(node, self._group_rows).rows
        return physical

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
        pairs = node.equijoin_pairs()
        left = self._cost_model.estimate(node.left, self._group_rows)
        right = self._cost_model.estimate(node.right, self._group_rows)
        left_keys = [pair[0] for pair in pairs]
        right_keys = [pair[1] for pair in pairs]
        residual = self._residual_predicate(node, pairs)
        lookup = None
        if pairs:
            chosen = self._cost_model.join_method(
                node, pairs, left, right, self.options.use_indexes
            )
            lookup = chosen.lookup
        if lookup is not None:
            # Only the driving input is lowered; the other is the index.
            drive_left = chosen.method == INDEX_INTO_RIGHT
            return PIndexNestedLoopJoin(
                self.plan(node.left if drive_left else node.right),
                lookup.table,
                lookup.index,
                left_keys if drive_left else right_keys,
                lookup.alias,
                conjoin([residual, lookup.filter_predicate]),
                outer_is_left=drive_left,
            )
        # A cross join is an inner join with no condition. Build the hash
        # table on the estimated-smaller input.
        kind = JoinKind.INNER if node.kind == JoinKind.CROSS else node.kind
        build_left = kind == JoinKind.INNER and left.rows < right.rows
        return PHashJoin(
            self.plan(node.left),
            self.plan(node.right),
            left_keys,
            right_keys,
            residual,
            kind,
            build_left,
        )

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
        outer = self.plan(node.outer)
        enclosing = self._group_rows
        self._group_rows = self._cost_model.groups(node, enclosing)[1]
        try:
            per_group = self.plan(node.per_group)
        finally:
            self._group_rows = enclosing
        return PGApply(
            outer,
            node.grouping_columns,
            per_group,
            node.group_variable,
            spill_threshold=self.options.gapply_spill_threshold,
        )


def plan_physical(
    node: LogicalOperator,
    catalog: Catalog,
    options: PlannerOptions | None = None,
) -> PhysicalOperator:
    """Convenience wrapper: lower ``node`` against ``catalog``."""
    return Planner(catalog, options).plan(node)
