"""Cost model for plans containing GApply (Section 4.4).

The paper's sketch, implemented directly:

* **uniform groups** — the cost of GApply is the cost of evaluating the
  per-group query on one *average* group multiplied by the number of
  groups; the number of groups is the number of distinct values of the
  grouping columns; the average group size is the outer result size divided
  by the number of groups.
* per-group statistics reduce to whole-relation statistics under the
  uniformity assumption ("the selectivity of a predicate is the same in all
  groups"), so selectivity estimation inside the per-group query reuses the
  base-table statistics.

Costs are abstract work units roughly proportional to tuples touched, which
is what the executor's :class:`~repro.execution.context.Counters` measure,
so estimated and observed work are directly comparable in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.algebra.expressions import (
    And,
    CaseWhen,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
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
from repro.errors import OptimizerError
from repro.optimizer.access_paths import JoinSide, choose_join_side, choose_seek
from repro.storage.catalog import Catalog
from repro.storage.statistics import ColumnStatistics

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_GROUP_ROWS = 16.0

#: Per-column surcharge for operations that buffer or copy whole rows
#: (GApply partitioning, sorts, distinct hashing). Width-proportional costs
#: are what make the projection-before-GApply rule pay off.
WIDTH_FACTOR = 0.25


def _width(node: LogicalOperator) -> float:
    return float(len(node.schema))


@dataclass(frozen=True)
class Estimate:
    """Estimated output cardinality and cumulative cost of a subtree."""

    rows: float
    cost: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", max(0.0, self.rows))
        object.__setattr__(self, "cost", max(0.0, self.cost))


#: How an equi-join runs (``JoinMethod.method``): a hash join, or an index
#: nested loop driven by one input that looks its matches up in an index
#: on the other input, the right or the left one.
HASH_JOIN = "hash"
INDEX_INTO_RIGHT = "index into right"
INDEX_INTO_LEFT = "index into left"


@dataclass(frozen=True)
class JoinMethod:
    """The cost model's choice for one equi-join: its estimated rows and
    cost, how it runs, and for the index methods the looked-up side."""

    rows: float
    cost: float
    method: str = HASH_JOIN
    lookup: JoinSide | None = None


def _references(names) -> list[Expression]:
    return [ColumnRef(name) for name in names]


def _distinct_count(stats: ColumnStatistics | None, rows: float) -> float:
    """A column's distinct values by its statistics, or over ``rows`` rows
    of a column without them."""
    if stats is None or stats.distinct_count == 0:
        return max(1.0, math.sqrt(max(rows, 1.0)))
    return float(stats.distinct_count)


class CostModel:
    """Cardinality/cost estimation over logical plans.

    One model estimates each (node, ``group_rows``) pair once: the memo is
    keyed by the node's identity and holds the node, so an id is never
    reused while its entry exists. A model reads the catalog as it was
    when it estimated, so callers make one per optimization or lowering.
    """

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._estimates: dict[tuple[int, float], tuple[LogicalOperator, Estimate]] = {}

    # ------------------------------------------------------------------
    # Statistics lookup
    # ------------------------------------------------------------------

    def _column_stats(self, reference: str) -> ColumnStatistics | None:
        """Find base-table statistics for a column reference.

        References may be qualified by an alias rather than the table name,
        so the lookup falls back to the bare column name, searching every
        table (TPC-H column names are globally unique, as the paper's
        queries assume).
        """
        bare = reference.rsplit(".", 1)[-1]
        for table in self.catalog:
            stats = self.catalog.statistics(table.name)
            found = stats.column(bare)
            if found is not None:
                return found
        return None

    def _distinct(self, reference: str, fallback_rows: float) -> float:
        return _distinct_count(self._column_stats(reference), fallback_rows)

    def _equality_selectivity(
        self, left: str, right: str, left_rows: float, right_rows: float
    ) -> float:
        """Selectivity of ``left = right`` between two columns: the share of
        both that is not NULL (NULL equals nothing), matched under the
        larger distinct count."""
        share, distinct = 1.0, 1.0
        for reference, rows in ((left, left_rows), (right, right_rows)):
            stats = self._column_stats(reference)
            distinct = max(distinct, _distinct_count(stats, rows))
            if stats is not None:
                share *= 1.0 - stats.null_fraction
        return share / distinct

    def _expression_distinct(self, expression: Expression, rows: float) -> float:
        """Distinct values of ``expression`` over ``rows`` rows: one for a
        constant, a column's own count, at most the sum over a CASE's
        distinct results, and an unknown column's default otherwise."""
        if isinstance(expression, Literal):
            return 1.0
        if isinstance(expression, CaseWhen):
            results = {value for _, value in expression.whens} | {expression.default}
            return sum(self._expression_distinct(value, rows) for value in results)
        if isinstance(expression, ColumnRef):
            return self._distinct(expression.name, rows)
        return _distinct_count(None, rows)

    # ------------------------------------------------------------------
    # Selectivity
    # ------------------------------------------------------------------

    def selectivity(self, predicate: Expression | None) -> float:
        if predicate is None:
            return 1.0
        if isinstance(predicate, And):
            result = 1.0
            for operand in predicate.operands:
                result *= self.selectivity(operand)
            return result
        if isinstance(predicate, Or):
            keep = 1.0
            for operand in predicate.operands:
                keep *= 1.0 - self.selectivity(operand)
            return 1.0 - keep
        if isinstance(predicate, Not):
            return 1.0 - self.selectivity(predicate.operand)
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        if isinstance(predicate, InList):
            # Each item is one equality: an item the column's statistics
            # rule out adds nothing.
            estimate = min(
                1.0,
                sum(
                    self.selectivity(
                        Comparison(ComparisonOp.EQ, predicate.operand, item)
                    )
                    for item in predicate.items
                ),
            )
            return 1.0 - estimate if predicate.negated else estimate
        if isinstance(predicate, IsNull):
            return 0.05 if not predicate.negated else 0.95
        return DEFAULT_RANGE_SELECTIVITY

    def _comparison_selectivity(self, predicate: Comparison) -> float:
        left, right = predicate.left, predicate.right
        # Normalize to column-op-value when possible.
        if isinstance(right, ColumnRef) and not isinstance(left, ColumnRef):
            left, right = right, left
            predicate = Comparison(predicate.op.flip(), left, right)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if predicate.op is ComparisonOp.EQ:
                return self._equality_selectivity(left.name, right.name, 1000.0, 1000.0)
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(left, ColumnRef):
            stats = self._column_stats(left.name)
            value = right.value if isinstance(right, Literal) else None
            if predicate.op is ComparisonOp.EQ:
                if stats is not None:
                    return stats.selectivity_eq(value) if value is not None else (
                        1.0 / max(1, stats.distinct_count)
                    )
                return DEFAULT_EQ_SELECTIVITY
            if predicate.op is ComparisonOp.NE:
                return 1.0 - self._comparison_selectivity(
                    Comparison(ComparisonOp.EQ, left, right)
                )
            if stats is not None and isinstance(value, (int, float)):
                if predicate.op in (ComparisonOp.LT, ComparisonOp.LE):
                    return stats.selectivity_range(None, float(value))
                return stats.selectivity_range(float(value), None)
            return DEFAULT_RANGE_SELECTIVITY
        return DEFAULT_RANGE_SELECTIVITY

    # ------------------------------------------------------------------
    # Plan estimation
    # ------------------------------------------------------------------

    def estimate(
        self, node: LogicalOperator, group_rows: float = DEFAULT_GROUP_ROWS
    ) -> Estimate:
        """Estimate ``node``; ``group_rows`` is the expected size of the
        group relation for GroupScan leaves (set by enclosing GApply)."""
        key = (id(node), group_rows)
        entry = self._estimates.get(key)
        if entry is None:
            entry = self._estimates[key] = (node, self._estimate(node, group_rows))
        return entry[1]

    def _estimate(self, node: LogicalOperator, group_rows: float) -> Estimate:
        if isinstance(node, TableScan):
            rows = float(len(self.catalog.table(node.table_name).rows))
            return Estimate(rows, rows)
        if isinstance(node, GroupScan):
            scan_cost = group_rows * (1.0 + WIDTH_FACTOR * _width(node))
            return Estimate(group_rows, scan_cost)
        if isinstance(node, Select):
            child = self.estimate(node.child, group_rows)
            sel = self.selectivity(node.predicate)
            if isinstance(node.child, TableScan):
                seek = choose_seek(node, self.catalog)
                if seek is not None:
                    # Index seek: pay for the rows fetched, not the scan.
                    rows = child.rows * sel
                    fetched = rows
                    if seek.residual is not None:
                        fetched = max(
                            rows, child.rows * self.selectivity(node.predicate)
                        )
                        if seek.equal_values is not None:
                            fetched = child.rows * seek.estimated_fraction()
                    seek_cost = math.log2(child.rows + 2.0) + fetched + rows
                    return Estimate(rows, seek_cost)
            return Estimate(child.rows * sel, child.cost + child.rows)
        if isinstance(node, (Project, Prune, Remap, Alias)):
            child = self.estimate(node.children()[0], group_rows)
            # Output-width-dependent: constructing narrower rows is cheaper,
            # which is what lets narrowing/pruning rewrites win.
            per_row = 0.2 + 0.1 * _width(node)
            return Estimate(child.rows, child.cost + per_row * child.rows)
        if isinstance(node, Limit):
            child = self.estimate(node.child, group_rows)
            return Estimate(min(child.rows, float(node.count)), child.cost)
        if isinstance(node, Distinct):
            child = self.estimate(node.child, group_rows)
            if isinstance(node.child, Project):
                outputs = [expression for expression, _ in node.child.items]
            else:
                outputs = _references(node.schema.qualified_names())
            distinct = self._distinct_rows(outputs, child.rows)
            hash_cost = child.rows * (1.0 + WIDTH_FACTOR * _width(node))
            return Estimate(distinct, child.cost + hash_cost)
        if isinstance(node, OrderBy):
            child = self.estimate(node.child, group_rows)
            sort_cost = child.rows * (
                math.log2(child.rows + 2.0) + WIDTH_FACTOR * _width(node)
            )
            return Estimate(child.rows, child.cost + sort_cost)
        if isinstance(node, GroupBy):
            return self._estimate_groupby(node, group_rows)
        if isinstance(node, (Union, UnionAll)):
            rows = 0.0
            cost = 0.0
            for child in node.children():
                estimate = self.estimate(child, group_rows)
                rows += estimate.rows
                cost += estimate.cost
            if isinstance(node, Union):
                cost += rows
                rows = self._distinct_rows(_references(node.schema.qualified_names()), rows)
            return Estimate(rows, cost)
        if isinstance(node, Exists):
            child = self.estimate(node.child, group_rows)
            # Early exit on the first row: charge half the child's cost.
            return Estimate(1.0, 0.5 * child.cost)
        if isinstance(node, Apply):
            outer = self.estimate(node.outer, group_rows)
            inner = self.estimate(node.inner, group_rows)
            rows = outer.rows * max(inner.rows, 0.0)
            if len(node.inner.schema) == 0:
                rows = outer.rows * min(inner.rows, 1.0)
            if node.bindings:
                cost = outer.cost + outer.rows * (inner.cost + 1.0)
            else:
                # Uncorrelated inner is evaluated once (executor caches it).
                cost = outer.cost + inner.cost + outer.rows
            return Estimate(rows, cost)
        if isinstance(node, Join):
            return self._estimate_join(node, group_rows)
        if isinstance(node, GApply):
            return self._estimate_gapply(node, group_rows)
        raise OptimizerError(f"no cost estimate for {type(node).__name__}")

    def _distinct_rows(self, outputs: list[Expression], input_rows: float) -> float:
        product = 1.0
        for output in outputs:
            product *= self._expression_distinct(output, input_rows)
            if product >= input_rows:
                return max(1.0, input_rows)
        return max(1.0, min(product, input_rows))

    def _estimate_groupby(self, node: GroupBy, group_rows: float) -> Estimate:
        child = self.estimate(node.child, group_rows)
        if node.is_scalar_aggregate:
            return Estimate(1.0, child.cost + child.rows)
        groups = self._distinct_rows(_references(node.keys), child.rows)
        return Estimate(groups, child.cost + child.rows)

    def _estimate_join(self, node: Join, group_rows: float) -> Estimate:
        left = self.estimate(node.left, group_rows)
        right = self.estimate(node.right, group_rows)
        pairs = node.equijoin_pairs()
        if pairs:
            chosen = self.join_method(node, pairs, left, right)
            return Estimate(chosen.rows, chosen.cost)
        rows = left.rows * right.rows * self.selectivity(node.predicate)
        cost = left.cost + right.cost + left.rows * max(right.rows, 1.0)
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            rows = min(rows, left.rows)
        return Estimate(rows, cost)

    def join_method(
        self,
        node: Join,
        pairs: list[tuple[str, str]],
        left: Estimate,
        right: Estimate,
        use_indexes: bool = True,
    ) -> JoinMethod:
        """Price the equi-join ``node`` and choose how it runs.

        ``pairs`` are its (left, right) equality keys and ``left``/``right``
        its inputs' estimates. A hash join always works. An inner join may
        instead drive from one input and look up each row's matches in the
        other, when that input is an indexed base table
        (:func:`~repro.optimizer.access_paths.choose_join_side`); the planner
        lowers only inner joins that way, so only they are priced that way.
        The cheapest method wins, hash on a tie, and the planner lowers
        exactly the method returned.
        """
        sel = 1.0
        for left_ref, right_ref in pairs:
            sel *= self._equality_selectivity(left_ref, right_ref, left.rows, right.rows)
        rows = left.rows * right.rows * sel
        cost = left.cost + right.cost + left.rows + right.rows + rows
        if node.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return JoinMethod(min(rows, left.rows), cost)
        chosen = JoinMethod(rows, cost)
        if not use_indexes or node.kind != JoinKind.INNER:
            return chosen
        candidates = (
            (INDEX_INTO_RIGHT, node.right, [pair[1] for pair in pairs], left, right),
            (INDEX_INTO_LEFT, node.left, [pair[0] for pair in pairs], right, left),
        )
        for method, side, keys, outer, inner in candidates:
            lookup = choose_join_side(side, keys, self.catalog)
            if lookup is None:
                continue
            matches = max(1.0, inner.rows / max(1, lookup.index.distinct_key_count()))
            cost = outer.cost + outer.rows * (1.0 + matches) + rows
            if cost < chosen.cost:
                chosen = JoinMethod(rows, cost, method, lookup)
        return chosen

    def groups(
        self, node: GApply, group_rows: float = DEFAULT_GROUP_ROWS
    ) -> tuple[float, float]:
        """The number of groups ``node`` partitions its outer into and the
        average group size, the ``group_rows`` its per-group plan is
        estimated (and its joins are chosen) at."""
        outer = self.estimate(node.outer, group_rows)
        groups = self._distinct_rows(_references(node.grouping_columns), outer.rows)
        groups = min(groups, max(outer.rows, 1.0))
        return groups, max(outer.rows / max(groups, 1.0), 1.0)

    def _estimate_gapply(self, node: GApply, group_rows: float) -> Estimate:
        outer = self.estimate(node.outer, group_rows)
        groups, avg_group = self.groups(node, group_rows)
        per_group = self.estimate(node.per_group, avg_group)
        # Partition phase buffers every outer row: width-proportional copy.
        partition_cost = outer.cost + outer.rows * (
            1.0 + WIDTH_FACTOR * _width(node.outer)
        )
        execution_cost = groups * (per_group.cost + 2.0)
        return Estimate(
            groups * per_group.rows, partition_cost + execution_cost
        )
