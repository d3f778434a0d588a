"""Engine-differential tests: a compiled plan must be indistinguishable
from the same physical plan on the row iterators (``PhysicalOperator.
execute``, the reference) — identical rows in identical order, identical
deterministic counters, identical per-operator metrics snapshots (time
excluded), and identical typed budget errors. Batching is an
implementation detail, never a semantic one.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.api import Database
from repro.errors import (
    MemoryBudgetExceeded,
    RowBudgetExceeded,
    TimeoutExceeded,
)
from repro.execution.base import PhysicalOperator
from repro.execution.context import Counters, ExecutionContext
from repro.execution.governor import Budget, Governor
from repro.execution.vector.compiler import compile_plan
from repro.fuzz.oracle import reference_rows
from repro.observe.metrics import MetricsRegistry
from repro.optimizer.planner import PlannerOptions
from repro.storage.catalog import Catalog
from repro.storage.types import DataType
from repro.workloads.queries import PAPER_QUERIES
from repro.workloads.tpch import TpchConfig, load_tpch

#: Every paper-query formulation (4 baseline + 4 gapply + the naive
#: correlated-subquery variants where the paper defines one).
FORMULATIONS = [
    (query.name, label, sql)
    for query in PAPER_QUERIES
    for label, sql in (
        ("baseline", query.baseline_sql),
        ("gapply", query.gapply_sql),
        ("naive", query.naive_sql),
    )
    if sql is not None
]

IDS = [f"{name}-{label}" for name, label, _ in FORMULATIONS]


def _lower(db: Database, sql: str, options: PlannerOptions | None = None):
    from repro.bench.harness import bind, lower as lower_plan, optimize_with

    logical = optimize_with(db.catalog, bind(db.catalog, sql))
    return lower_plan(db.catalog, logical, options)


def run_both(plan, batch_size: int = 1024, memory_cells: int | None = None):
    """(volcano, vector) triples of (rows, counter dict, metrics snapshot)."""
    outcomes = []
    for vector in (False, True):
        counters = Counters()
        metrics = MetricsRegistry()
        metrics.register_plan(plan)
        governor = (
            None if memory_cells is None
            else Governor(Budget(memory_cells=memory_cells))
        )
        ctx = ExecutionContext(
            counters=counters, metrics=metrics, governor=governor
        )
        if vector:
            rows = compile_plan(plan, batch_size=batch_size).run(ctx)
        else:
            rows = list(plan.execute(ctx))
        outcomes.append((rows, dict(vars(counters)), metrics.snapshot()))
    return outcomes


def assert_equivalent(plan, batch_size: int = 1024):
    (v_rows, v_counters, v_snap), (b_rows, b_counters, b_snap) = run_both(
        plan, batch_size
    )
    assert b_rows == v_rows
    assert b_counters == v_counters
    assert b_snap == v_snap


class TestPaperFormulations:
    @pytest.mark.parametrize("name,label,sql", FORMULATIONS, ids=IDS)
    def test_identical_rows_counters_metrics(self, tpch_db, name, label, sql):
        assert_equivalent(_lower(tpch_db, sql))

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_tiny_batches_force_cross_batch_state(self, tpch_db, batch_size):
        # Small batches make limit countdowns, distinct sets and hash
        # builds span many batches; Q2 exercises joins + gapply.
        query = PAPER_QUERIES[1]
        assert_equivalent(_lower(tpch_db, query.baseline_sql), batch_size)
        assert_equivalent(_lower(tpch_db, query.gapply_sql), batch_size)

    def test_paper_plans_fully_vectorize(self, tpch_db):
        for query in PAPER_QUERIES:
            for sql in (query.baseline_sql, query.gapply_sql):
                plan = compile_plan(_lower(tpch_db, sql))
                assert plan.fully_vectorized, (query.name, plan.fallbacks)

    def test_spilling_gapply_vectorizes_and_agrees(self, tpch_db):
        # A spill threshold no longer routes GApply to Volcano: the outer
        # and per-group plans compile to batch nodes and the partition
        # phase (and its spill bookkeeping) is the one both engines share.
        options = PlannerOptions(gapply_spill_threshold=64)
        for query in PAPER_QUERIES:
            plan = _lower(tpch_db, query.gapply_sql, options)
            assert compile_plan(plan).fully_vectorized, query.name
            volcano, vector = run_both(plan)
            assert vector == volcano, query.name
            assert volcano[1]["spill_runs"] > 0, query.name

    @pytest.mark.parametrize(
        "sql",
        [
            "select s_name, ps_supplycost from supplier, partsupp "
            "where s_suppkey = ps_suppkey order by ps_supplycost desc, s_name",
            "select distinct s_nationkey, ps_availqty from supplier, partsupp "
            "where s_suppkey = ps_suppkey",
        ],
        ids=["order-by", "distinct"],
    )
    def test_budgeted_breaker_spills_over_a_compiled_join(
        self, tpch_db, monkeypatch, sql
    ):
        # A memory budget selects the external sort / dedupe inside the
        # breaker and nothing else: the join below it still runs as batch
        # nodes, counter for counter what the row iterators do.
        plan = _lower(tpch_db, sql)
        assert compile_plan(plan).fully_vectorized
        (rows, _, _), _ = run_both(plan)
        volcano, vector = run_both(plan, memory_cells=64)
        assert vector == volcano
        assert vector[0] == rows
        assert vector[1]["spill_runs"] > 0
        below = {path: r for path, r in vector[2].items() if path}
        assert any("Join" in r["op"] for r in below.values())
        assert {r["executions"] for r in below.values()} == {1}

        def no_row_iterators(self, ctx):
            raise AssertionError(f"{self.label()} pulled through execute()")

        monkeypatch.setattr(PhysicalOperator, "execute", no_row_iterators)
        ctx = ExecutionContext(governor=Governor(Budget(memory_cells=64)))
        assert compile_plan(plan).run(ctx) == rows

    def test_naive_formulations_fall_back_but_agree(self, tpch_db):
        # Correlated subqueries lower to correlated Apply/Exists, which
        # the compiler routes through Volcano — noted, never wrong.
        for query in PAPER_QUERIES:
            if query.naive_sql is None:
                continue
            plan = compile_plan(_lower(tpch_db, query.naive_sql))
            assert not plan.fully_vectorized
            assert all(note.reason for note in plan.fallbacks)


class TestEngineKnob:
    """There is no engine to choose: every entry point compiles the plan,
    and the row iterators are reachable only as the tests' reference."""

    def test_sql_engine_kwarg(self, tpch_db):
        sql = PAPER_QUERIES[0].baseline_sql
        entry_points = {
            "Database.sql": lambda: tpch_db.sql(sql, engine="volcano"),
            "Prepared.execute": lambda: tpch_db.prepare(sql).execute(
                engine="vector"
            ),
        }
        for name, call in entry_points.items():
            with pytest.raises(TypeError, match=rf"{name}\(\) got an unexpected"):
                call()
        assert not hasattr(tpch_db.sql(sql), "engine")

    def test_planner_options_engine(self):
        with pytest.raises(TypeError):
            PlannerOptions(engine="volcano")
        assert len(PlannerOptions.__dataclass_fields__) == 4

    def test_unknown_engine_rejected(self, tpch_db):
        # Rejected like any misspelled option, before any work.
        before = tpch_db.plan_cache.stats()
        with pytest.raises(TypeError):
            tpch_db.sql(PAPER_QUERIES[0].baseline_sql, engine="columnar")
        assert tpch_db.plan_cache.stats() == before

    def test_vector_batch_size_knob(self, tpch_db):
        sql = PAPER_QUERIES[2].baseline_sql
        result = tpch_db.sql(
            sql, planner_options=PlannerOptions(vector_batch_size=2)
        )
        assert result.rows == list(reference_rows(tpch_db, sql))


class TestBudgetEquivalence:
    """Typed budget errors must be engine-independent."""

    def run_engine(self, plan, vector: bool, governor: Governor):
        ctx = ExecutionContext(counters=Counters(), governor=governor)
        try:
            if vector:
                compile_plan(plan).run(ctx)
            else:
                list(plan.execute(ctx))
        except Exception as error:  # noqa: BLE001 - comparing types
            return type(error)
        return None

    def test_memory_budget_identical(self, tpch_db):
        for query in PAPER_QUERIES:
            plan = _lower(tpch_db, query.baseline_sql)
            volcano = self.run_engine(plan, False, Governor(Budget(memory_cells=50)))
            vector = self.run_engine(plan, True, Governor(Budget(memory_cells=50)))
            assert vector is volcano, query.name
            if volcano is not None:
                assert volcano is MemoryBudgetExceeded

    def test_fake_clock_timeout_identical(self, tpch_db):
        def ticking_clock():
            state = [0.0]

            def clock():
                state[0] += 0.5
                return state[0]

            return clock

        plan = _lower(tpch_db, PAPER_QUERIES[0].baseline_sql)
        volcano = self.run_engine(
            plan, False, Governor(Budget(timeout=1.0), clock=ticking_clock())
        )
        vector = self.run_engine(
            plan, True, Governor(Budget(timeout=1.0), clock=ticking_clock())
        )
        assert volcano is TimeoutExceeded
        assert vector is TimeoutExceeded

    def test_max_rows_identical_through_api(self, tpch_db):
        sql = PAPER_QUERIES[0].baseline_sql
        with pytest.raises(RowBudgetExceeded):
            tpch_db.sql(sql, max_rows=2)
        total = len(tpch_db.sql(sql).rows)
        exact = tpch_db.sql(sql, max_rows=total)
        assert len(exact.rows) == total
        with pytest.raises(RowBudgetExceeded):
            tpch_db.sql(sql, max_rows=total - 1)


class TestBatchMemory:
    """The compiled plan must not buy its speed with transient memory:
    a join stage emits every match for an input batch at once, and the
    sorted-outer-union plans fan out ~80 rows per probe row."""

    def test_q4_baseline_peaks_near_volcano(self):
        catalog = Catalog()
        load_tpch(catalog, TpchConfig(scale=0.5))
        db = Database(catalog, plan_cache=None)
        sql = PAPER_QUERIES[3].baseline_sql

        def traced_peak(run) -> int:
            run()  # statistics, imports, first-call costs
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        volcano = traced_peak(lambda: list(reference_rows(db, sql)))
        default = traced_peak(lambda: db.sql(sql))
        # 1.2x at the default batch size; 5.5x at 1024 rows per batch.
        assert default < 2 * volcano, (default, volcano)


def null_heavy_db() -> Database:
    """A database where most grouping/join keys are NULL — the worst case
    for raw-key fast paths and NULL-skip bookkeeping."""
    db = Database()
    db.create_table(
        "events",
        [
            ("e_key", DataType.INTEGER),
            ("e_group", DataType.STRING),
            ("e_value", DataType.INTEGER),
        ],
        [
            (None, None, 1),
            (1, "a", None),
            (None, "a", 2),
            (2, None, 3),
            (1, "b", 4),
            (None, None, None),
            (2, "b", 5),
            (None, "b", None),
            (1, None, 6),
        ],
    )
    db.create_table(
        "lookup",
        [("l_key", DataType.INTEGER), ("l_tag", DataType.STRING)],
        [(1, "one"), (2, "two"), (None, "null"), (1, "uno")],
    )
    return db


NULL_HEAVY_QUERIES = [
    "select e_group, count(*), sum(e_value) from events group by e_group",
    "select distinct e_key, e_group from events",
    "select e_key, l_tag from events, lookup where e_key = l_key",
    "select e_key, e_value from events order by e_value, e_key",
    "select gapply(select count(*), sum(e_value) from g) as (n, total) "
    "from events group by e_group : g",
]


class TestAwkwardSchemas:
    @pytest.mark.parametrize("sql", NULL_HEAVY_QUERIES)
    def test_null_heavy_identical(self, sql):
        db = null_heavy_db()
        for batch_size in (1024, 2):
            assert_equivalent(_lower(db, sql), batch_size)

    def test_empty_groups_identical(self):
        # Every group's per-group rows are filtered away: the gapply
        # empty-group skip accounting must match the row engine exactly.
        db = null_heavy_db()
        sql = (
            "select gapply(select count(*) from g where e_value > 100) "
            "as (n) from events group by e_group : g"
        )
        assert_equivalent(_lower(db, sql))
        assert_equivalent(_lower(db, sql), 1)

    def test_empty_table_identical(self):
        db = Database()
        db.create_table(
            "empty", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], []
        )
        for sql in (
            "select k, sum(v) from empty group by k",
            "select count(*) from empty",
            "select distinct k from empty",
        ):
            assert_equivalent(_lower(db, sql))
