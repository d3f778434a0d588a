"""Segmented GApply: the per-group query runs once per wave of groups,
and nothing a caller can observe says so.

Engine-differential like ``test_vector_engine.assert_equivalent``: the
compiled plan and the same plan on the row iterators must return
identical rows and identical ``Counters`` and per-operator metrics,
where a segmented operator counts one execution per group it ran. A
subtree without a segmented form loops per segment where it sits, and
the same holds for it.
"""

from __future__ import annotations

import math

import pytest

from repro.api import Database
from repro.bench.harness import bind, optimize_with, rules_without
from repro.bench.harness import lower as lower_plan
from repro.errors import MemoryBudgetExceeded, TimeoutExceeded
from repro.execution.context import Counters, ExecutionContext
from repro.execution.gapply import PGApply
from repro.execution.governor import Budget, Governor
from repro.execution.vector.compiler import compile_plan
from repro.execution.scans import PGroupScan
from repro.execution.vector.segmented import WAVE_ROWS, SegLoop, waves
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


#: Per-group queries that loop somewhere, with the reasons the compiler
#: notes: the looped subtree runs once per segment, the rest stays
#: segmented.
PARTIAL = {
    "distinct-under-count": (
        "select gapply(select count(*) from (select distinct s from g) as d) "
        "as (n) from t group by k : g",
        "distinct",
    ),
    "exists-under-filter": (
        "select gapply(select v, s from g where v > 4 and exists "
        "(select v from g where f > 3)) as (v, s) from t group by k : g",
        "exists probe",
    ),
    "correlated-apply": (
        "select gapply(select count(*) from g where v in "
        "(select v from g where f > 2)) as (n) from t group by k : g",
        "correlated apply",
    ),
    "union-looped-and-segmented": (
        "select gapply(select distinct v from g union all "
        "select count(*) from g where v > 2) as (v) from t group by k : g",
        "distinct",
    ),
}


def nested_gapply(
    db: Database, spill: int | None,
    inner_pgq: str = "select count(*), max(v), min(k) from h",
) -> PGApply:
    """``t`` grouped by ``k`` into ``$g``, each group grouped by ``s``
    into ``$h`` (SQL has no spelling for it); ``inner_pgq`` reads all of
    ``t``'s columns."""
    outer = lower(
        db,
        "select gapply(select count(*), max(v), min(s), min(f) from g) "
        "as (n, m, lo, x) from t group by k : g",
    )
    inner = lower(
        db, f"select gapply({inner_pgq}) as (n, m, lo) from t group by s : h",
    )
    assert inner.outer.schema == outer.outer.schema
    per_group = PGApply(
        PGroupScan("g", outer.outer.schema), inner.grouping_columns,
        inner.per_group, "h", spill,
    )
    return PGApply(outer.outer, outer.grouping_columns, per_group, "g", spill)


#: A LIMIT above a GApply. The compiled plan fills a wave before the
#: limit cuts it, so it runs more groups than the row iterators and its
#: counters exceed theirs (DESIGN.md §12.3); only the rows agree.
LIMIT_OVER_GAPPLY = (
    "select * from (select gapply(select p_name from g where p_retailprice "
    "> (select avg(p_retailprice) from g)) as (n) from part, partsupp "
    "where p_partkey = ps_partkey group by ps_suppkey : g) as x limit 2"
)


#: The same over a per-group plan that loops (a DISTINCT).
LIMIT_OVER_LOOP = (
    "select * from (select gapply(select distinct p_size from g) as (s) "
    "from part, partsupp where p_partkey = ps_partkey "
    "group by ps_suppkey : g) as x limit 2"
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


def assert_identical(plan, batch_size: int, loops: str | None = None) -> list:
    """Rows, counters and metrics agree; ``loops`` is the reasons the
    compiler notes for the GApply, or None if nothing loops."""
    compiled = compile_plan(plan, batch_size=batch_size)
    assert [note.reason for note in compiled.per_group_loops] == (
        [] if loops is None else [loops]
    )
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

    @pytest.mark.parametrize("sql", [LIMIT_OVER_GAPPLY, LIMIT_OVER_LOOP])
    @pytest.mark.parametrize("batch_size", [128, 3, 1])
    def test_limit_over_gapply_agrees_on_rows(self, tpch_db, batch_size, sql):
        plan = _lower(tpch_db, sql)
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


class TestPartialLifting:
    """An operator without a segmented form loops per segment where it
    sits; the operators above and beside it stay segmented."""

    @pytest.mark.parametrize("spill", [None, 64])
    @pytest.mark.parametrize("batch_size", [1, 3, 128])
    @pytest.mark.parametrize("name", PARTIAL)
    def test_rows_counters_metrics(self, name, batch_size, spill):
        db = segmented_db()
        sql, reason = PARTIAL[name]
        plan = lower(db, sql, gapply_spill_threshold=spill)
        assert assert_identical(plan, batch_size, loops=reason)
        assert not isinstance(compile_plan(plan).root.per_group, SegLoop)
        assert live_spill_files() == frozenset()

    @pytest.mark.parametrize("spill", [None, 64])
    @pytest.mark.parametrize("batch_size", [1, 3, 128])
    def test_nested_gapply(self, batch_size, spill):
        plan = nested_gapply(segmented_db(), spill)
        rows = assert_identical(plan, batch_size, loops="nested gapply")
        # one row per (k, s) pair present
        assert len(rows) == sum(min(size, 3) for size in SIZES)
        assert live_spill_files() == frozenset()


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

    def test_budget_error_in_the_last_wave_matches_the_row_iterators(self):
        # One wave holds every group, and the partition fills the budget:
        # the looped DISTINCT's first charge must fail in both engines,
        # so the partition stays held until the last wave has run.
        db = Database()
        db.create_table(
            "u",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(i % 4, i % 3) for i in range(16)],
        )
        plan = lower(
            db, "select gapply(select distinct v from g) as (v) from u "
            "group by k : g",
        )
        budget = Budget(memory_cells=16 * len(plan.outer.schema))
        errors = []
        for vector in (False, True):
            ctx = ExecutionContext(governor=Governor(budget))
            with pytest.raises(MemoryBudgetExceeded) as raised:
                if vector:
                    compile_plan(plan).run(ctx)
                else:
                    list(plan.execute(ctx))
            errors.append(str(raised.value))
            assert live_spill_files() == frozenset()
        assert errors[0] == errors[1]

    def test_timeout_inside_a_looped_subtree_leaves_no_spill_files(self):
        db = segmented_db()
        plan = lower(
            db, "select gapply(select distinct v from g) as (v) from t "
            "group by k : g", gapply_spill_threshold=64,
        )
        for vector in (False, True):
            counters = Counters()
            # Only the looped subtree scans the group.
            governor = Governor(
                Budget(timeout=1.0),
                clock=lambda: 100.0 if counters.group_scan_rows > 300 else 0.0,
            )
            ctx = ExecutionContext(counters=counters, governor=governor)
            with pytest.raises(TimeoutExceeded) as raised:
                if vector:
                    compile_plan(plan).run(ctx)
                else:
                    list(plan.execute(ctx))
            assert counters.spill_runs > 0
            assert live_spill_files() == frozenset()
        # the compiled plan raised from within the loop
        assert any(
            entry.frame.code.raw is SegLoop.batches.__code__
            for entry in raised.traceback
        )


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

    def test_exists_loops_per_segment_and_explain_says_so(self, tpch_db):
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

    def test_one_note_per_gapply_reasons_in_compile_order(self):
        db = segmented_db()
        plan = lower(
            db,
            "select gapply(select distinct v from g union all select v from "
            "g where exists (select v from g where f > 3)) as (v) "
            "from t group by k : g",
        )
        notes = compile_plan(plan).per_group_loops
        assert [note.reason for note in notes] == ["distinct, exists probe"]
        plan = nested_gapply(
            db, None, "select distinct k, v, s from h where f > 1"
        )
        notes = compile_plan(plan).per_group_loops
        assert [(note.label, note.reason) for note in notes] == [
            ("GApply[s; $h]", "distinct"), ("GApply[k; $g]", "nested gapply")
        ]
        volcano, vector = run_both(plan)
        assert vector == volcano

    @pytest.mark.parametrize(
        "sql", [QUERIES["emptied-aggregates"], PARTIAL["distinct-under-count"][0]]
    )
    def test_tracing_records_one_group_span_per_wave(self, sql):
        from repro.observe.metrics import MetricsRegistry
        from repro.observe.trace import Tracer

        db = segmented_db()
        plan = lower(db, sql)
        tracer = Tracer()
        metrics = MetricsRegistry()
        metrics.register_plan(plan)
        ctx = ExecutionContext(metrics=metrics, tracer=tracer)
        compile_plan(plan).run(ctx)
        spans = [s for s in tracer.spans if s.kind == "group"]
        assert 1 < len(spans) < len(SIZES)
        assert sum(s.attrs["groups"] for s in spans) == len(SIZES)
        assert sum(s.attrs["group_rows"] for s in spans) == sum(SIZES)
