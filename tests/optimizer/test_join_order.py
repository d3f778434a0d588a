"""The join-order pass: each inner-join region ordered by cost, once,
before the rule search (``repro.optimizer.rules.join_order``)."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.algebra.expressions import col, conjoin, eq, gt, lit
from repro.algebra.operators import Alias, Join, JoinKind, Prune, Select, TableScan
from repro.api import Database
from repro.bench.fig8 import WRITTEN_ORDER
from repro.optimizer.cost import CostModel
from repro.optimizer.engine import Optimizer
from repro.optimizer.rules.join_order import MAX_LEAVES, JoinOrder, join_tree
from repro.sql.parser import parse
from repro.sql.printer import print_query
from repro.workloads.queries import PAPER_QUERIES, query_by_name
from repro.workloads.rule_queries import TABLE1_SWEEPS
from repro.workloads.tpch import Catalog, TpchConfig, load_tpch
from tests.conftest import SEARCH_RULES, rows_sorted

#: A four-table FK chain with a filter on its far end.
CHAIN = (
    "select s_name, p_name from nation, supplier, partsupp, part"
    " where n_nationkey = s_nationkey and s_suppkey = ps_suppkey"
    " and ps_partkey = p_partkey and p_size < 10"
)

INVARIANCE_CASES = [
    ("Q2-baseline", query_by_name("Q2").baseline_sql),
    ("Q3-baseline", query_by_name("Q3").baseline_sql),
    ("Q4-baseline", query_by_name("Q4").baseline_sql),
    ("chain", CHAIN),
]


def from_permutations(sql: str) -> list[str]:
    """``sql`` with its FROM items in every order (the same order in every
    union branch)."""
    query = parse(sql)
    count = len(query.selects[0].from_items)
    texts = []
    for order in itertools.permutations(range(count)):
        selects = tuple(
            dataclasses.replace(
                select, from_items=tuple(select.from_items[i] for i in order)
            )
            for select in query.selects
        )
        texts.append(print_query(dataclasses.replace(query, selects=selects)))
    return texts


def order(catalog: Catalog, plan):
    return JoinOrder().order(plan, CostModel(catalog))


def scan(catalog: Catalog, name: str) -> TableScan:
    return TableScan.of(catalog.table(name))


class TestOrderInvariance:
    @pytest.mark.parametrize(
        "label,sql", INVARIANCE_CASES, ids=[c[0] for c in INVARIANCE_CASES]
    )
    def test_every_from_order_gives_one_cost_and_one_result(
        self, tpch_catalog, label, sql
    ):
        db = Database(tpch_catalog, plan_cache=None)
        costs, results = set(), set()
        for text in from_permutations(sql):
            report = db.sql(text, explain=True).report
            costs.add(round(report.best_estimate.cost, 6))
            results.add(tuple(rows_sorted(db.sql(text).rows)))
        assert len(costs) == 1, costs
        assert len(results) == 1


class TestRegions:
    def test_q4_baseline_joins_the_derived_table_last(self, tpch_db):
        """The paper's Q4 baseline as written joins tmp with partsupp on
        the supplier key alone; ordered, partsupp meets part first."""
        plan = tpch_db.plan(query_by_name("Q4").baseline_sql)
        region = order(tpch_db.catalog, plan).child.child  # under Sort, Project
        assert isinstance(region, Join) and isinstance(region.left, Alias)
        assert join_tree(region.right) == ("partsupp", "part")
        assert join_tree(region) != join_tree(plan.child.child)

    def test_residual_rides_on_an_equi_join(self, tpch_db):
        """Q2's ``p_retailprice >= avgprice`` links part with the averages
        but is no edge: it is placed on the join that covers both, which
        also carries an equality, so no nested-loop join appears."""
        plan = tpch_db.plan(query_by_name("Q2").baseline_sql)
        ordered = order(tpch_db.catalog, plan)
        joins = [
            node
            for node in ordered.walk()
            if isinstance(node, Join) and "avgprice" in str(node.predicate)
        ]
        assert len(joins) == 2
        assert all(join.equijoin_pairs() for join in joins)

    def test_one_leaf_conjuncts_filter_their_leaf(self, tpch_catalog):
        part, partsupp = scan(tpch_catalog, "part"), scan(tpch_catalog, "partsupp")
        size = gt(col("p_size"), lit(10))
        key = eq(col("ps_partkey"), col("p_partkey"))
        plan = Select(Join(partsupp, part, None, JoinKind.CROSS), conjoin([key, size]))
        ordered = order(tpch_catalog, plan)
        assert ordered == Join(partsupp, Select(part, size), key)

    def test_tie_keeps_the_written_order(self, tpch_catalog):
        """Both orientations of a two-way join cost the same; the written
        one stays."""
        part, partsupp = scan(tpch_catalog, "part"), scan(tpch_catalog, "partsupp")
        key = eq(col("ps_partkey"), col("p_partkey"))
        for left, right in ((part, partsupp), (partsupp, part)):
            plan = Join(left, right, key)
            assert order(tpch_catalog, plan) == plan

    def test_a_root_region_keeps_its_columns(self, tpch_catalog):
        """No by-name consumer above: a Prune restores the column order."""
        nation, supplier, partsupp = (
            scan(tpch_catalog, name) for name in ("nation", "supplier", "partsupp")
        )
        plan = Select(
            Join(Join(nation, partsupp, None, JoinKind.CROSS), supplier, None, JoinKind.CROSS),
            conjoin(
                [
                    eq(col("n_nationkey"), col("s_nationkey")),
                    eq(col("s_suppkey"), col("ps_suppkey")),
                ]
            ),
        )
        ordered = order(tpch_catalog, plan)
        assert isinstance(ordered, Prune)
        assert ordered.schema == plan.schema
        assert not any(
            isinstance(node, Join) and node.kind == JoinKind.CROSS
            for node in ordered.walk()
        )

    def test_cross_products_only_when_the_graph_is_disconnected(self, tpch_db):
        sql = (
            "select r_name, s_name from region, nation, supplier"
            " where n_nationkey = s_nationkey"
        )
        plan = tpch_db.plan(sql)
        ordered = order(tpch_db.catalog, plan)
        kinds = [node.kind for node in ordered.walk() if isinstance(node, Join)]
        assert sorted(kinds) == [JoinKind.CROSS, JoinKind.INNER]
        assert rows_sorted(tpch_db.sql(sql).rows) == rows_sorted(
            tpch_db.sql(sql, planner_options=WRITTEN_ORDER).rows
        )

    def test_large_regions_keep_their_written_shape(self, tpch_catalog):
        leaves = [
            TableScan.of(tpch_catalog.table("region"), f"r{i}")
            for i in range(MAX_LEAVES + 1)
        ]
        joined = leaves[0]
        for leaf in leaves[1:]:
            joined = Join(joined, leaf, None, JoinKind.CROSS)
        filtered = eq(col("r0.r_regionkey"), lit(1))
        ordered = order(tpch_catalog, Select(joined, filtered))
        assert join_tree(ordered) == join_tree(joined)
        assert Select(leaves[0], filtered) in list(ordered.walk())


class TestEngine:
    def test_applied_once_before_the_search(self, tpch_db):
        plan = tpch_db.plan(query_by_name("Q4").baseline_sql)
        optimizer = Optimizer(tpch_db.catalog)
        assert optimizer.explore(plan)[0] == order(tpch_db.catalog, plan)
        report = optimizer.optimize(plan)
        assert report.fired[0] == "join_order"
        assert "join_order" not in report.fired[1:]
        trace = {firing.rule: firing for firing in report.rule_trace}
        assert (trace["join_order"].proposed, trace["join_order"].kept) == (1, 1)
        # The header keeps pricing the plan as bound.
        assert report.original_estimate == CostModel(tpch_db.catalog).estimate(plan)

    def test_off_switch_starts_from_the_bound_plan(self, tpch_db):
        plan = tpch_db.plan(query_by_name("Q4").baseline_sql)
        report = Optimizer(tpch_db.catalog, SEARCH_RULES).optimize(plan)
        assert "join_order" not in report.fired
        assert Optimizer(tpch_db.catalog, SEARCH_RULES).explore(plan)[0] == plan

    def test_paper_goldens_search_a_narrow_space(self, tpch_db):
        explored = 0
        for query in PAPER_QUERIES:
            for sql in (query.gapply_sql, query.baseline_sql, query.naive_sql):
                if sql is None:
                    continue
                report = Optimizer(tpch_db.catalog).optimize(tpch_db.plan(sql))
                assert not report.truncated
                explored += report.explored
        assert explored <= 100


@pytest.fixture(scope="module")
def scale_01_db() -> Database:
    catalog = Catalog()
    load_tpch(catalog, TpchConfig(scale=0.1))
    return Database(catalog, plan_cache=None)


def _regret_cases() -> list[tuple[str, str]]:
    cases = []
    for query in PAPER_QUERIES:
        for formulation in ("gapply", "baseline", "naive"):
            sql = getattr(query, f"{formulation}_sql")
            if sql is not None:
                cases.append((f"{query.name}-{formulation}", sql))
    for sweep in TABLE1_SWEEPS:
        for parameter, sql in sweep.instances():
            cases.append((f"{sweep.rule_name}-{parameter}", sql))
    return cases


def work_ratio(db: Database, sql: str) -> float:
    """Executed work of ``sql``'s chosen plan over that of the plan chosen
    with its join regions as written."""
    ordered = db.sql(sql).counters.total_work
    written = db.sql(sql, planner_options=WRITTEN_ORDER).counters.total_work
    return ordered / max(written, 1)


class TestRegret:
    """Ordering by estimate must not cost executed work: over the paper's
    formulations and the Table-1 sweep points at scale 0.1, and over every
    FROM order of the invariance cases (a written cross product among
    them, which the pass replaces whatever its estimate), the chosen plan
    does at most 1.05x the work of the plan chosen without it."""

    def test_work_within_five_percent_of_the_written_order(self, scale_01_db):
        for label, sql in _regret_cases():
            ratio = work_ratio(scale_01_db, sql)
            assert ratio <= 1.05, (label, ratio)

    @pytest.mark.parametrize(
        "label,sql", INVARIANCE_CASES, ids=[c[0] for c in INVARIANCE_CASES]
    )
    def test_every_from_order_within_five_percent_of_itself_as_written(
        self, scale_01_db, label, sql
    ):
        for text in from_permutations(sql):
            ratio = work_ratio(scale_01_db, text)
            assert ratio <= 1.05, (text, ratio)

