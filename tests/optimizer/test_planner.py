"""Unit tests for logical-to-physical lowering."""

import pytest

from repro.algebra.expressions import And, avg, col, count_star, eq, gt, lit
from repro.algebra.operators import (
    Distinct,
    Exists,
    GApply,
    GroupBy,
    GroupScan,
    Join,
    JoinKind,
    Limit,
    OrderBy,
    Select,
    TableScan,
    Union,
    UnionAll,
)
from repro.errors import PlanError
from repro.execution.aggregates import PHashAggregate
from repro.execution.apply import PExists
from repro.execution.basic import PDistinct, PFilter, PLimit, PSort, PUnionAll
from repro.execution.gapply import PGApply
from repro.execution.indexscan import PIndexNestedLoopJoin, PIndexSeek
from repro.execution.joins import PHashJoin
from repro.execution.scans import PTableScan
from repro.optimizer.planner import Planner, PlannerOptions, plan_physical
from repro.storage import Catalog, DataType, table_from_rows


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(
        table_from_rows(
            "big",
            [("k", DataType.INTEGER), ("v", DataType.FLOAT)],
            [(i % 20, float(i)) for i in range(200)],
        )
    )
    catalog.register(
        table_from_rows(
            "small",
            [("sk", DataType.INTEGER), ("sv", DataType.STRING)],
            [(i, f"s{i}") for i in range(5)],
            primary_key=["sk"],
        )
    )
    return catalog


def big(catalog):
    return TableScan.of(catalog.table("big"))


def small(catalog):
    return TableScan.of(catalog.table("small"))


class TestBasicLowering:
    def test_scan(self, catalog):
        assert isinstance(plan_physical(big(catalog), catalog), PTableScan)

    def test_select_filter(self, catalog):
        node = Select(big(catalog), gt(col("v"), lit(1.0)))
        assert isinstance(plan_physical(node, catalog), PFilter)

    def test_groupby(self, catalog):
        node = GroupBy(big(catalog), ("k",), (avg(col("v"), "m"),))
        assert isinstance(plan_physical(node, catalog), PHashAggregate)

    def test_distinct_orderby_limit(self, catalog):
        assert isinstance(plan_physical(Distinct(big(catalog)), catalog), PDistinct)
        assert isinstance(
            plan_physical(OrderBy(big(catalog), (("v", True),)), catalog), PSort
        )
        assert isinstance(plan_physical(Limit(big(catalog), 3), catalog), PLimit)

    def test_union_all_and_union(self, catalog):
        u = UnionAll((big(catalog), big(catalog)))
        assert isinstance(plan_physical(u, catalog), PUnionAll)
        d = Union((big(catalog), big(catalog)))
        lowered = plan_physical(d, catalog)
        assert isinstance(lowered, PDistinct)

    def test_exists(self, catalog):
        assert isinstance(plan_physical(Exists(big(catalog)), catalog), PExists)

    def test_unknown_operator_rejected(self, catalog):
        class Strange:
            pass

        with pytest.raises(PlanError):
            Planner(catalog).plan(Strange())  # type: ignore[arg-type]


class TestJoinLowering:
    def test_equijoin_becomes_hash_join(self, catalog):
        node = Join(big(catalog), small(catalog), eq(col("k"), col("sk")))
        lowered = plan_physical(
            node, catalog, PlannerOptions(use_indexes=False)
        )
        assert isinstance(lowered, PHashJoin)

    def test_build_side_is_smaller_input(self, catalog):
        node = Join(big(catalog), small(catalog), eq(col("k"), col("sk")))
        lowered = plan_physical(node, catalog, PlannerOptions(use_indexes=False))
        assert lowered.build_left is False  # right (small) is the build side
        flipped = Join(small(catalog), big(catalog), eq(col("sk"), col("k")))
        lowered = plan_physical(flipped, catalog, PlannerOptions(use_indexes=False))
        assert lowered.build_left is True

    def test_cross_join_nested_loop(self, catalog):
        # The nested loop is a hash join on the empty key, built on the
        # smaller input; a cross join is an inner join with no condition.
        node = Join(big(catalog), small(catalog), None, JoinKind.CROSS)
        lowered = plan_physical(node, catalog)
        assert isinstance(lowered, PHashJoin)
        assert lowered.left_keys == lowered.right_keys == ()
        assert lowered.residual is None
        assert lowered.kind == JoinKind.INNER
        assert lowered.build_left is False

    def test_theta_join_nested_loop(self, catalog):
        theta = gt(col("k"), col("sk"))
        node = Join(small(catalog), big(catalog), theta)
        lowered = plan_physical(node, catalog)
        assert isinstance(lowered, PHashJoin)
        assert lowered.left_keys == lowered.right_keys == ()
        assert lowered.residual == theta
        assert lowered.build_left is True

    def test_residual_conjunct_kept(self, catalog):
        predicate = And(eq(col("k"), col("sk")), gt(col("v"), lit(5.0)))
        node = Join(big(catalog), small(catalog), predicate)
        lowered = plan_physical(node, catalog, PlannerOptions(use_indexes=False))
        assert isinstance(lowered, PHashJoin)
        assert lowered.residual is not None


class TestIndexLowering:
    def test_selection_uses_index(self, catalog):
        catalog.table("big").create_index(["k"])
        node = Select(big(catalog), eq(col("k"), lit(3)))
        lowered = plan_physical(node, catalog)
        assert isinstance(lowered, PIndexSeek)

    def test_range_selection_uses_ordered_index(self, catalog):
        catalog.table("big").create_index(["v"])
        node = Select(big(catalog), gt(col("v"), lit(100.0)))
        lowered = plan_physical(node, catalog)
        assert isinstance(lowered, PIndexSeek)

    def test_index_disabled_by_option(self, catalog):
        catalog.table("big").create_index(["k"])
        node = Select(big(catalog), eq(col("k"), lit(3)))
        lowered = plan_physical(node, catalog, PlannerOptions(use_indexes=False))
        assert isinstance(lowered, PFilter)

    def test_small_outer_drives_index_join(self, catalog):
        catalog.table("big").create_index(["k"])
        node = Join(small(catalog), big(catalog), eq(col("sk"), col("k")))
        lowered = plan_physical(node, catalog)
        assert isinstance(lowered, PIndexNestedLoopJoin)

    def test_index_join_results_match_hash_join(self, catalog):
        from repro.execution.base import run_plan

        catalog.table("big").create_index(["k"])
        node = Join(small(catalog), big(catalog), eq(col("sk"), col("k")))
        with_index = plan_physical(node, catalog)
        without = plan_physical(node, catalog, PlannerOptions(use_indexes=False))
        assert sorted(run_plan(with_index), key=repr) == sorted(
            run_plan(without), key=repr
        )


class TestGApplyLowering:
    def make(self, catalog):
        outer = big(catalog)
        pgq = GroupBy(GroupScan("g", outer.schema), (), (count_star("n"),))
        return GApply(outer, ("k",), pgq, "g")

    def test_partitioning_option(self, catalog):
        # The spill threshold picks the partition phase: none hashes in
        # memory, a threshold sorts externally.
        node = self.make(catalog)
        hash_plan = plan_physical(node, catalog)
        assert isinstance(hash_plan, PGApply)
        assert hash_plan.spill_threshold is None
        sort_plan = plan_physical(
            node, catalog, PlannerOptions(gapply_spill_threshold=4)
        )
        assert sort_plan.spill_threshold == 4

    def test_same_results_either_partitioning(self, catalog):
        from repro.execution.base import run_plan
        from repro.execution.context import ExecutionContext

        node = self.make(catalog)
        a = run_plan(plan_physical(node, catalog))
        ctx = ExecutionContext()
        b = run_plan(
            plan_physical(node, catalog, PlannerOptions(gapply_spill_threshold=4)),
            ctx,
        )
        assert ctx.counters.spill_runs > 0
        assert a == b
