"""Unit tests for the transformation engine."""

import pytest

from repro.algebra.expressions import avg, col, eq, lit
from repro.algebra.operators import (
    GApply,
    GroupBy,
    GroupScan,
    Join,
    Select,
    TableScan,
)
from repro.api import Database
from repro.execution.base import run_plan
from repro.fuzz.generator import generate_case
from repro.optimizer.engine import Optimizer, apply_rule_once, rewrite_everywhere
from repro.optimizer.planner import plan_physical
from repro.optimizer.rules import DEFAULT_RULES, RuleContext, rule_by_name
from repro.storage import Catalog, DataType, table_from_rows
from repro.workloads.queries import query_by_name
from repro.workloads.rule_queries import TABLE1_SWEEPS
from tests.conftest import ALL_RULES_OFF, SEARCH_RULES
from tests.observe.test_plan_snapshots import FORMULATIONS


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(
        table_from_rows(
            "part",
            [
                ("p_partkey", DataType.INTEGER),
                ("p_brand", DataType.STRING),
                ("p_retailprice", DataType.FLOAT),
            ],
            [(i, "A" if i % 2 == 0 else "B", float(i)) for i in range(1, 41)],
            primary_key=["p_partkey"],
        )
    )
    catalog.register(
        table_from_rows(
            "partsupp",
            [("ps_suppkey", DataType.INTEGER), ("ps_partkey", DataType.INTEGER)],
            [(100 + (i % 4), i) for i in range(1, 41)],
        )
    )
    catalog.add_foreign_key("partsupp", ["ps_partkey"], "part", ["p_partkey"])
    return catalog


def sample_plan(catalog):
    outer = Select(
        Join(
            TableScan.of(catalog.table("partsupp")),
            TableScan.of(catalog.table("part")),
            None,
        ),
        eq(col("ps_partkey"), col("p_partkey")),
    )
    g = outer.schema
    pgq = GroupBy(
        Select(GroupScan("g", g), eq(col("p_brand"), lit("A"))),
        (),
        (avg(col("p_retailprice"), "m"),),
    )
    return GApply(outer, ("ps_suppkey",), pgq, "g")


#: The 10 paper formulations plus each Table-1 sweep's first query.
REPLAY_CASES = FORMULATIONS + [
    (sweep.rule_name, sweep.make_sql(sweep.parameters[0])) for sweep in TABLE1_SWEEPS
]


class TestExploration:
    def test_explore_includes_original(self, catalog):
        # Without join_order the search starts from the plan as bound.
        optimizer = Optimizer(catalog, SEARCH_RULES)
        plan = sample_plan(catalog)
        alternatives = optimizer.explore(plan)
        assert alternatives[0] == plan
        assert len(alternatives) > 1

    def test_exploration_terminates_and_dedupes(self, catalog):
        optimizer = Optimizer(catalog, max_alternatives=500)
        alternatives = optimizer.explore(sample_plan(catalog))
        assert len(alternatives) < 500
        assert len(set(alternatives)) == len(alternatives)

    def test_cap_respected(self, catalog, tpch_db):
        q2_baseline = tpch_db.plan(query_by_name("Q2").baseline_sql)
        for cap in (1, 3, 128):
            optimizer = Optimizer(catalog, max_alternatives=cap)
            assert len(optimizer.explore(sample_plan(catalog))) <= cap
            # A search wide enough to hit every cap, not only the small ones:
            # Q2's baseline with its join regions left as written.
            report = Optimizer(
                tpch_db.catalog, SEARCH_RULES, max_alternatives=cap
            ).optimize(q2_baseline)
            assert report.explored == cap
            assert report.truncated


class TestOptimize:
    def test_improves_cost(self, catalog):
        report = Optimizer(catalog).optimize(sample_plan(catalog))
        assert report.best_estimate.cost <= report.original_estimate.cost
        assert report.improved

    def test_preserves_semantics(self, catalog):
        plan = sample_plan(catalog)
        report = Optimizer(catalog).optimize(plan)
        a = sorted(run_plan(plan_physical(plan, catalog)), key=repr)
        b = sorted(run_plan(plan_physical(report.best, catalog)), key=repr)
        assert a == b

    def test_preserves_schema(self, catalog):
        plan = sample_plan(catalog)
        report = Optimizer(catalog).optimize(plan)
        assert report.best.schema == plan.schema

    @pytest.mark.parametrize("label,sql", REPLAY_CASES, ids=[c[0] for c in REPLAY_CASES])
    def test_fired_replays_to_best(self, tpch_db, label, sql):
        """``fired`` is a derivation: firing its rules in order, anywhere
        in the tree, reaches ``best`` from the bound plan."""
        plan = tpch_db.plan(sql)
        report = Optimizer(tpch_db.catalog).optimize(plan)
        assert (report.fired == []) == (report.best == plan)
        context = RuleContext(tpch_db.catalog)
        reachable = {plan}
        for name in report.fired:
            rule = rule_by_name(name)
            reachable = {
                rewritten
                for tree in reachable
                for rewritten in rewrite_everywhere(tree, rule, context)
            }
        assert report.best in reachable

    def test_fired_covers_a_long_derivation(self, catalog, tpch_db):
        """The best plan sits 8 firings from the input: one selection
        pushed below 8 cross joins (join_order off: it would place the
        selection before the search starts)."""
        nine_way = (
            "select r0.r_name from "
            + ", ".join(f"region r{i}" for i in range(9))
            + " where r0.r_regionkey = 1"
        )
        report = Optimizer(tpch_db.catalog, SEARCH_RULES).optimize(
            tpch_db.plan(nine_way)
        )
        assert report.fired == ["select_pushdown"] * 8

        part = catalog.table("part")
        joined = TableScan.of(part, "p0")
        for i in range(1, 9):
            joined = Join(joined, TableScan.of(part, f"p{i}"), None)
        plan = Select(joined, eq(col("p0.p_brand"), lit("A")))
        report = Optimizer(catalog, SEARCH_RULES).optimize(plan)
        assert report.fired == ["select_pushdown"] * 8
        assert isinstance(report.best, Join)

    def test_empty_rule_set_returns_original(self, catalog):
        plan = sample_plan(catalog)
        report = Optimizer(catalog, []).optimize(plan)
        assert report.best == plan
        assert report.explored == 1

    def test_subset_of_rules(self, catalog):
        plan = sample_plan(catalog)
        only_pushdown = [rule_by_name("select_pushdown")]
        report = Optimizer(catalog, only_pushdown).optimize(plan)
        assert isinstance(report.best, GApply)
        assert isinstance(report.best.outer, Join)


def assert_bound_plan_kept(catalog, sql):
    """With every rule disabled, a run — cached or not — optimizes the
    bound plan into itself: one plan explored, no rule fired."""
    for db in (Database(catalog, plan_cache=None), Database(catalog)):
        report = db.sql(sql, explain=True, planner_options=ALL_RULES_OFF).report
        assert report.best == db.plan(sql), sql
        assert (report.explored, report.fired) == (1, []), sql


class TestEveryRuleOff:
    """Disabling every rule is how a run asks for the plan as written."""

    @pytest.mark.parametrize("label,sql", FORMULATIONS, ids=[c[0] for c in FORMULATIONS])
    def test_paper_formulations(self, tpch_catalog, label, sql):
        assert_bound_plan_kept(tpch_catalog, sql)

    def test_tier1_fuzz_slice(self):
        # The seeds the tier-1 ``quick`` sweep runs (tests/fuzz/test_differential.py).
        for seed in range(200):
            case = generate_case(seed)
            assert_bound_plan_kept(case.db.build().catalog, case.sql)


class TestApplyRuleOnce:
    def test_returns_none_when_no_match(self, catalog):
        scan = TableScan.of(catalog.table("part"))
        assert apply_rule_once(scan, rule_by_name("gapply_to_groupby"), catalog) is None

    def test_applies_at_first_matching_position(self, catalog):
        plan = sample_plan(catalog)
        rewritten = apply_rule_once(plan, rule_by_name("select_pushdown"), catalog)
        assert rewritten is not None
        assert rewritten != plan

    def test_all_default_rules_have_unique_names(self):
        names = [rule.name for rule in DEFAULT_RULES]
        assert len(set(names)) == len(names)

    def test_rule_by_name_unknown(self):
        with pytest.raises(KeyError):
            rule_by_name("no_such_rule")
