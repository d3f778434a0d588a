"""Segmented GApply: the per-group query runs once per wave of groups,
and nothing a caller can observe says so.

Engine-differential like ``test_vector_engine.assert_equivalent``: the
compiled plan and the same plan on the row iterators must return
identical rows and identical ``Counters`` and per-operator metrics,
where a segmented operator counts one execution per group it ran.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Database
from repro.bench.harness import bind, optimize_with, rules_without
from repro.bench.harness import lower as lower_plan
from repro.errors import TimeoutExceeded
from repro.execution.context import Counters, ExecutionContext
from repro.execution.gapply import PGApply
from repro.execution.governor import Budget, Governor
from repro.execution.vector.compiler import compile_plan
from repro.execution.vector.segmented import WAVE_ROWS, waves
from repro.optimizer.planner import PlannerOptions
from repro.storage.spill import live_spill_files
from repro.storage.types import DataType
from repro.workloads.queries import PAPER_QUERIES
from repro.xmlpub import Translator, tpch_supplier_view
from tests.execution.test_vector_engine import _lower, run_both
from tests.xmlpub.queries import Q1 as Q1_XQUERY, Q2 as Q2_XQUERY

#: Group sizes, in key order: one-row groups, a group larger than a
#: wave, and sizes that straddle batch edges at 3 and 128 and wave
#: edges.
SIZES = [1, 1, 2, 3, 1, 127, 129, 5, 1, WAVE_ROWS + 300, 1, 2, 700, 400, 1, 64]


def segmented_db() -> Database:
    """Table ``t``: integer key ``k`` (one group per ``SIZES`` entry, the
    last one NULL), float key ``f`` with NULLs and NaNs, and values."""
    rows = []
    for k, size in enumerate(SIZES):
        key = None if k == len(SIZES) - 1 else k
        for i in range(size):
            value = (k * 7 + i * 3) % 11
            f = (
                None if i % 13 == 5
                else math.nan if i % 17 == 3
                else float((k + i) % 6)
            )
            rows.append((key, f, value, f"s{i % 3}"))
    db = Database()
    db.create_table(
        "t",
        [
            ("k", DataType.INTEGER),
            ("f", DataType.FLOAT),
            ("v", DataType.INTEGER),
            ("s", DataType.STRING),
        ],
        rows,
    )
    return db


#: Per-group queries covering every segmented operator.
QUERIES = {
    # a filter that empties some segments under count(*), avg and min
    "emptied-aggregates": (
        "select gapply(select count(*), avg(f), min(v), sum(f) from g "
        "where v > 8) as (n, a, m, total) from t group by k : g"
    ),
    "group-aggregate-compare": (
        "select gapply(select v, f from g where v > (select avg(v) from g)) "
        "as (v, f) from t group by k : g"
    ),
    # the inner runs only where the outer kept a row
    "lazy-inner": (
        "select gapply(select v from g where v = 10 and "
        "v >= (select max(v) from g)) as (v) from t group by k : g"
    ),
    "union": (
        "select gapply(select v, null from g where v < 3 union all "
        "select null, count(*) from g union all select v, v from g "
        "where v > 9) as (v, n) from t group by k : g"
    ),
    "keyed-aggregate": (
        "select gapply(select s, count(*), sum(f), max(f) from g group by s) "
        "as (s, n, total, top) from t group by k : g"
    ),
    "nan-and-null-keys": (
        "select gapply(select count(*), min(v), avg(v) from g) as (n, m, a) "
        "from t group by f : g"
    ),
}


#: A LIMIT above a GApply. The compiled plan fills a wave before the
#: limit cuts it, so it runs more groups than the row iterators and its
#: counters exceed theirs (DESIGN.md §12.3); only the rows agree.
LIMIT_OVER_GAPPLY = (
    "select * from (select gapply(select p_name from g where p_retailprice "
    "> (select avg(p_retailprice) from g)) as (n) from part, partsupp "
    "where p_partkey = ps_partkey group by ps_suppkey : g) as x limit 2"
)


def lower(db: Database, sql: str, **options):
    """The physical plan, kept a GApply (two of ``QUERIES`` would become
    a GROUP BY otherwise)."""
    logical = optimize_with(
        db.catalog, bind(db.catalog, sql), rules_without("gapply_to_groupby")
    )
    plan = lower_plan(db.catalog, logical, PlannerOptions(**options))
    assert isinstance(plan, PGApply), plan.pretty()
    return plan


def assert_identical(plan, batch_size: int) -> list:
    compiled = compile_plan(plan, batch_size=batch_size)
    assert not compiled.per_group_loops, compiled.per_group_loops
    (v_rows, v_counters, v_metrics), (b_rows, b_counters, b_metrics) = run_both(
        plan, batch_size
    )
    assert repr(b_rows) == repr(v_rows)  # NaN == NaN only by repr
    assert b_counters == v_counters
    assert b_metrics == v_metrics
    return v_rows


class TestSegmentedEqualsTheRowIterators:
    @pytest.mark.parametrize("name", QUERIES)
    @pytest.mark.parametrize("batch_size", [1, 3, 128])
    def test_rows_counters_metrics(self, name, batch_size):
        db = segmented_db()
        assert assert_identical(lower(db, QUERIES[name]), batch_size)

    @pytest.mark.parametrize("spill", [None, 64])
    def test_partitionings_in_memory_and_spilled(self, spill):
        # In memory the partition phase hashes; spilled, it sorts.
        db = segmented_db()
        for sql in QUERIES.values():
            plan = lower(db, sql, gapply_spill_threshold=spill)
            assert_identical(plan, 128)
            (_, counters, _), _ = run_both(plan)
            assert (counters["spill_runs"] > 0) == (spill is not None)
        assert live_spill_files() == frozenset()

    @pytest.mark.parametrize("batch_size", [128, 3, 1])
    def test_limit_over_gapply_agrees_on_rows(self, tpch_db, batch_size):
        plan = _lower(tpch_db, LIMIT_OVER_GAPPLY)
        (row_iterators, _, _), (compiled, _, _) = run_both(plan, batch_size)
        assert len(row_iterators) == 2
        assert compiled == row_iterators

    def test_one_row_groups(self):
        db = Database()
        db.create_table(
            "u",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(k, k % 4) for k in range(3000)],
        )
        sql = (
            "select gapply(select v from g where v >= (select avg(v) from g) "
            "union all select count(*) from g where v > 2) as (v) "
            "from u group by k : g"
        )
        rows = assert_identical(lower(db, sql), 128)
        assert len(rows) == 3000 + 3000

    def test_waves_cut_at_group_boundaries(self):
        groups = [((key,), [()] * size) for key, size in enumerate(SIZES)]
        counts = [len(wave_groups) for _, wave_groups in waves(iter(groups))]
        assert sum(counts) == len(SIZES)
        # a wave reaches WAVE_ROWS with its last group, not before
        start = 0
        for count in counts[:-1]:
            sizes = SIZES[start : start + count]
            assert sum(sizes) >= WAVE_ROWS > sum(sizes[:-1])
            start += count
        assert sum(SIZES[start:]) >= 1


class TestBudgetMidWave:
    def test_timeout_mid_wave_leaves_no_spill_files(self):
        db = segmented_db()
        plan = lower(
            db, QUERIES["group-aggregate-compare"], gapply_spill_threshold=64
        )
        raised = []
        for vector in (False, True):
            counters = Counters()
            # The clock runs out once three groups have started: inside
            # the first wave, with the spilled partition still open.
            governor = Governor(
                Budget(timeout=1.0),
                clock=lambda: 100.0 if counters.group_executions > 2 else 0.0,
            )
            ctx = ExecutionContext(counters=counters, governor=governor)
            with pytest.raises(TimeoutExceeded):
                if vector:
                    compile_plan(plan).run(ctx)
                else:
                    list(plan.execute(ctx))
            raised.append(counters.group_executions)
            assert counters.spill_runs > 0
            assert live_spill_files() == frozenset()
        assert all(2 < started < len(SIZES) for started in raised), raised


class TestWhatRunsSegmented:
    def test_paper_and_publish_per_group_plans_run_segmented(self, tpch_db):
        view = tpch_supplier_view()
        translator = Translator(view, tpch_db.catalog)
        texts = [query.gapply_sql for query in PAPER_QUERIES] + [
            translator.translate(xquery).gapply_sql
            for xquery in (Q1_XQUERY, Q2_XQUERY)
        ]
        for sql in texts:
            plan = _lower(tpch_db, sql)
            compiled = compile_plan(plan)
            assert compiled.fully_vectorized
            assert compiled.per_group_loops == (), sql
            # the publish plans' UNION ALL is the per-group plan's root
            for batch_size in (3, 128):
                volcano, vector = run_both(plan, batch_size)
                assert vector == volcano, sql
            assert "per-group loops" not in tpch_db.sql(sql, explain=True).render()

    def test_exists_keeps_the_per_group_loop_and_explain_says_so(self, tpch_db):
        sql = (
            "select gapply(select p_name from g where exists "
            "(select p_name from g where p_retailprice > 1500)) as (name) "
            "from part, partsupp where p_partkey = ps_partkey "
            "group by ps_suppkey : g"
        )
        plan = _lower(tpch_db, sql)
        compiled = compile_plan(plan)
        assert [note.reason for note in compiled.per_group_loops] == [
            "exists probe"
        ]
        volcano, vector = run_both(plan)
        assert vector == volcano
        explanation = tpch_db.sql(sql, explain=True)
        header = [
            line for line in explanation.render().splitlines()
            if line.startswith("-- per-group loops: ")
        ]
        assert header == [
            f"-- per-group loops: {compiled.per_group_loops[0].label} "
            "(exists probe)"
        ]
        assert explanation.to_json()["per_group_loops"] == [
            {"op": compiled.per_group_loops[0].label, "reason": "exists probe"}
        ]

    def test_tracing_records_one_group_span_per_wave(self):
        from repro.observe.metrics import MetricsRegistry
        from repro.observe.trace import Tracer

        db = segmented_db()
        plan = lower(db, QUERIES["emptied-aggregates"])
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.register_plan(plan)
        ctx = ExecutionContext(metrics=metrics, tracer=tracer)
        compile_plan(plan).run(ctx)
        spans = [s for s in tracer.spans if s.kind == "group"]
        assert 1 < len(spans) < len(SIZES)
        assert sum(s.attrs["groups"] for s in spans) == len(SIZES)
        assert sum(s.attrs["group_rows"] for s in spans) == sum(SIZES)
