"""Spill-to-disk partitioning: forced-spill GApply (the external sort)
must be byte-identical to in-memory execution (the hash partition) for
every paper-query formulation, with real spill metrics and no files left
behind. Also the shared run-writer itself, and where ORDER BY and
DISTINCT put their runs."""

from __future__ import annotations

import pickle
import tempfile
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.api import Database
from repro.errors import MemoryBudgetExceeded, QueryCancelled, SpillError
from repro.execution.context import ExecutionContext
from repro.execution.faults import FaultPlan, fault_injection
from repro.execution.governor import Budget, Governor
from repro.fuzz.oracle import reference_rows
from repro.optimizer.planner import PlannerOptions
from repro.storage import DataType, spill
from repro.storage.spill import (
    FAN_IN,
    RunWriter,
    SpillRun,
    live_spill_files,
    merge_runs,
)
from repro.workloads.queries import PAPER_QUERIES
from tests.conftest import ALL_RULES_OFF

#: Small enough that every paper query's partition buffer overflows.
SPILL_THRESHOLD = 64

FORMULATIONS = [
    (query.name, kind, sql)
    for query in PAPER_QUERIES
    for kind, sql in [
        ("gapply", query.gapply_sql),
        ("baseline", query.baseline_sql),
        ("naive", query.naive_sql),
    ]
    if sql is not None
]


@pytest.fixture(autouse=True)
def spill_dir(tmp_path, monkeypatch):
    """Every spill file of the test lands in ``tmp_path``: the spill
    layer has no directory option, it goes where ``tempfile`` says."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    return tmp_path


@pytest.fixture
def open_files(monkeypatch):
    """``.peak``: the most spill files open at once during the test."""
    tally = SimpleNamespace(peak=0)
    track = spill._track

    def tracking(path):
        track(path)
        tally.peak = max(tally.peak, len(live_spill_files()))

    monkeypatch.setattr(spill, "_track", tracking)
    return tally


def open_file_bound(levels: int) -> int:
    """The documented bound on one writer's open files (``FAN_IN``)."""
    return (FAN_IN - 1) * levels + 2


class TestCodec:
    """The documented record framing round-trips exactly."""

    def test_run_roundtrip_counts_exact_frame_bytes(self):
        rows = [(1, "x", None), (2.5, b"\x00bytes", True), ((),)]
        run = SpillRun(rows)
        try:
            assert run.records == len(rows)
            # frame = 4-byte length + 4-byte crc32 + pickled payload
            assert run.bytes_written == sum(
                8 + len(pickle.dumps(r, protocol=4)) for r in rows
            )
            assert list(run) == rows
        finally:
            run.close()

    def test_close_unlinks_file(self, tmp_path):
        run = SpillRun([(1,)])
        assert list(tmp_path.iterdir())
        run.close()
        run.close()  # idempotent
        assert list(tmp_path.iterdir()) == []

    def test_merge_runs_is_stable_in_argument_order(self, tmp_path):
        # Ties on the key must come out in run-argument order — the
        # property that makes a spilled partition phase byte-identical.
        run_a = SpillRun([(1, "a1"), (2, "a2")])
        run_b = SpillRun([(1, "b1"), (3, "b3")])
        tail = [(1, "tail"), (2, "tail2")]
        merged = list(merge_runs([run_a, run_b, tail], key=lambda r: r[0]))
        assert merged == [
            (1, "a1"), (1, "b1"), (1, "tail"),
            (2, "a2"), (2, "tail2"), (3, "b3"),
        ]
        run_a.close()
        run_b.close()
        assert list(tmp_path.iterdir()) == []

    def test_injected_write_failure_is_typed(self, tmp_path):
        # Write 0 succeeds, write 1 fails: the half-written run unlinks
        # itself before the typed error leaves its constructor.
        with fault_injection(FaultPlan(seed=1, fail_spill_at=1)):
            with pytest.raises(SpillError, match="injected"):
                SpillRun([(0,), (1,)])
        assert list(tmp_path.iterdir()) == []
        assert live_spill_files() == frozenset()


@pytest.mark.parametrize(
    "name,kind,sql",
    FORMULATIONS,
    ids=[f"{name}-{kind}" for name, kind, _ in FORMULATIONS],
)
class TestSpillEquivalence:
    """All 10 paper formulations: spilled == in-memory."""

    def test_forced_spill_is_byte_identical(
        self, tpch_db, tmp_path, name, kind, sql
    ):
        plain = tpch_db.sql(sql, planner_options=ALL_RULES_OFF)
        spilled = tpch_db.sql(
            sql,
            collect_metrics=True,
            planner_options=replace(
                ALL_RULES_OFF, gapply_spill_threshold=SPILL_THRESHOLD
            ),
        )
        assert spilled.rows == plain.rows
        if kind == "gapply":
            # GApply ran with an overflowing buffer: the spill metrics
            # must show real disk traffic, and EXPLAIN ANALYZE carries
            # the same registry.
            assert spilled.metrics.total("spilled_rows") > 0
            assert spilled.metrics.total("spill_runs") > 0
            assert spilled.metrics.total("spill_bytes") > 0
        # Run files are unlinked before the query returns.
        assert list(tmp_path.iterdir()) == []


class TestSpillObservability:
    def test_explain_analyze_reports_nonzero_spill(self, tpch_db):
        sql = PAPER_QUERIES[0].gapply_sql
        explanation = tpch_db.sql(
            sql,
            explain="analyze",
            planner_options=replace(
                ALL_RULES_OFF, gapply_spill_threshold=SPILL_THRESHOLD
            ),
        )
        assert explanation.registry.total("spilled_rows") > 0
        plain = tpch_db.sql(sql, planner_options=ALL_RULES_OFF)
        assert explanation.rows == plain.rows

    def test_no_spill_metrics_without_threshold(self, tpch_db):
        result = tpch_db.sql(
            PAPER_QUERIES[0].gapply_sql,
            planner_options=ALL_RULES_OFF,
            collect_metrics=True,
        )
        assert result.metrics.total("spilled_rows") == 0
        assert result.metrics.total("spill_runs") == 0


class TestSpillHygiene:
    """Checksummed records and leak-free error/cancel paths."""

    def test_corrupted_run_iteration_is_typed(self):
        run = SpillRun([(i, i) for i in range(10)])
        try:
            with open(run.path, "r+b") as handle:
                handle.seek(12)  # inside the first record's payload
                handle.write(b"\xde\xad")
            with pytest.raises(SpillError, match="checksum mismatch"):
                list(run)
        finally:
            run.close()

    def test_live_file_registry_tracks_open_and_close(self):
        before = live_spill_files()
        run = SpillRun([(1,)])
        assert run.path in live_spill_files() - before
        run.close()
        assert run.path not in live_spill_files()

    def test_nan_grouping_keys_spill_without_failing(self):
        # Three-row runs mixing NaN objects and other keys, per-group
        # aggregates to expose a group cut in two. Every NaN is one key
        # (NAN_KEY, which survives pickling), so the spilled groups, their
        # order and their rows equal the in-memory ones exactly.
        nan = float("nan")
        keys = [1.0, nan, 2.0, 1.0, 2.0, float("nan"), 3.0, nan, 1.0] * 4
        db = Database()
        db.create_table(
            "t",
            [("k", DataType.FLOAT), ("v", DataType.INTEGER)],
            [(k, i) for i, k in enumerate(keys)],
        )
        sql = (
            "select gapply(select count(*), sum(v) from g) as (n, s) "
            "from t group by k : g"
        )
        spilling = replace(ALL_RULES_OFF, gapply_spill_threshold=6)

        plain = db.sql(sql, planner_options=ALL_RULES_OFF).rows
        assert len(plain) == 4  # 1.0, NaN, 2.0, 3.0
        assert sum(row[1] for row in plain) == len(keys)
        for spilled in (
            db.sql(sql, planner_options=spilling).rows,
            list(reference_rows(db, sql, planner_options=spilling)),
        ):
            assert len(spilled) == len(plain)
            for got, want in zip(spilled, plain):
                assert got[1:] == want[1:]
                assert got[0] == want[0] or (got[0] != got[0] and want[0] != want[0])

    def test_injected_spill_failure_leaks_nothing(self, tpch_db, tmp_path):
        before = live_spill_files()
        options = replace(ALL_RULES_OFF, gapply_spill_threshold=SPILL_THRESHOLD)
        sql = PAPER_QUERIES[0].gapply_sql
        with fault_injection(FaultPlan(seed=3, fail_spill_at=0)):
            with pytest.raises(SpillError):
                tpch_db.sql(sql, planner_options=options)
        assert list(tmp_path.iterdir()) == []
        assert live_spill_files() == before

    def test_cancelled_spilling_query_leaks_nothing(self, tpch_db, tmp_path):
        before = live_spill_files()
        governor = Governor()
        governor.cancel("client disconnected")
        options = replace(ALL_RULES_OFF, gapply_spill_threshold=SPILL_THRESHOLD)
        with pytest.raises(QueryCancelled):
            tpch_db.sql(
                PAPER_QUERIES[0].gapply_sql,
                governor=governor,
                planner_options=options,
            )
        assert list(tmp_path.iterdir()) == []
        assert live_spill_files() == before


def _lower(db, sql):
    from repro.bench.harness import bind, lower, optimize_with

    return lower(db.catalog, optimize_with(db.catalog, bind(db.catalog, sql)))


class TestSpillLocation:
    """ORDER BY and DISTINCT runs land where GApply's do — wherever
    ``tempfile`` points — and are gone when the stream ends."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select ps_partkey, ps_suppkey from partsupp order by ps_suppkey",
            "select distinct ps_suppkey, ps_availqty from partsupp",
        ],
        ids=["order-by", "distinct"],
    )
    def test_budgeted_runs_are_created_there_and_removed(
        self, tpch_db, spill_dir, sql
    ):
        plan = _lower(tpch_db, sql)
        expected = list(plan.execute(ExecutionContext()))
        governor = Governor(Budget(memory_cells=SPILL_THRESHOLD))
        stream = plan.execute(ExecutionContext(governor=governor))
        rows = [next(stream)]
        on_disk = {str(path) for path in spill_dir.iterdir()}
        assert on_disk and on_disk == live_spill_files()
        rows.extend(stream)
        assert rows == expected
        assert list(spill_dir.iterdir()) == []
        assert live_spill_files() == frozenset()
        assert governor.cells_in_use == 0


class TestRunWriter:
    """The one external sort behind GApply's spilled partition, ORDER BY
    and DISTINCT, driven directly."""

    #: (key, arrival) pairs: few distinct keys, so every run has ties.
    ITEMS = [(i * 7 % 3, i) for i in range(20)]

    @staticmethod
    def key(item):
        return item[0]

    def writer(self, ctx, threshold):
        return RunWriter(ctx, None, self.key, threshold)

    @staticmethod
    def feed(writer, items=ITEMS):
        for item in items:
            writer.add(item, 2)

    def test_below_the_threshold_is_a_stable_in_memory_sort(self, spill_dir):
        ctx = ExecutionContext()
        with self.writer(ctx, threshold=1000) as writer:
            self.feed(writer)
            assert list(writer.merged()) == sorted(self.ITEMS, key=self.key)
            assert list(spill_dir.iterdir()) == []
        assert ctx.counters.spill_runs == 0
        assert ctx.counters.spilled_rows == 0
        assert ctx.counters.buffered_cells == 2 * len(self.ITEMS)
        assert ctx.counters.comparisons == len(self.ITEMS)
        assert writer.peak_rows == len(self.ITEMS)

    def test_ties_across_runs_come_out_in_arrival_order(self, spill_dir):
        ctx = ExecutionContext()
        with self.writer(ctx, threshold=6) as writer:  # 3 items per run
            self.feed(writer)
            assert len(list(spill_dir.iterdir())) == 6
            assert list(writer.merged()) == sorted(self.ITEMS, key=self.key)
        assert ctx.counters.spill_runs == 6
        assert ctx.counters.spilled_rows == 18
        assert ctx.counters.spill_bytes > 0
        assert ctx.counters.comparisons == len(self.ITEMS)
        assert writer.peak_rows == 3
        assert list(spill_dir.iterdir()) == []

    def test_lost_headroom_flushes_once_and_retries(self):
        governor = Governor(Budget(memory_cells=10))
        ctx = ExecutionContext(governor=governor)
        with self.writer(ctx, threshold=10) as writer:
            self.feed(writer, self.ITEMS[:3])
            assert ctx.counters.comparisons == 0  # nothing flushed yet
            governor.charge_cells(4)  # another holder takes the headroom
            writer.add(self.ITEMS[3], 2)  # 6 + 4 + 2 > 10: flush, retry
            assert ctx.counters.comparisons == 3
            assert governor.cells_in_use == 4 + 2
            assert list(writer.merged()) == sorted(
                self.ITEMS[:4], key=self.key
            )
        assert ctx.counters.spill_runs == 1
        assert governor.cells_in_use == 4

    def test_budget_error_only_when_nothing_is_resident(self):
        governor = Governor(Budget(memory_cells=10))
        governor.charge_cells(9)  # another holder leaves less than one item
        ctx = ExecutionContext(governor=governor)
        with self.writer(ctx, threshold=10) as writer:
            with pytest.raises(MemoryBudgetExceeded):
                writer.add(self.ITEMS[0], 2)
        assert governor.cells_in_use == 9
        assert live_spill_files() == frozenset()

    def test_consumer_closing_mid_merge_leaks_nothing(self, spill_dir):
        governor = Governor(Budget(memory_cells=6))
        ctx = ExecutionContext(governor=governor)
        with self.writer(ctx, threshold=6) as writer:
            self.feed(writer)
            merged = iter(writer.merged())
            next(merged)
            assert governor.cells_in_use > 0
            assert list(spill_dir.iterdir())
        assert governor.cells_in_use == 0
        assert live_spill_files() == frozenset()
        assert list(spill_dir.iterdir()) == []

    def test_open_runs_stay_logarithmic_past_fan_in_squared(
        self, spill_dir, open_files
    ):
        # Width 1 over a 1-cell threshold: every item but the last is a
        # run of its own, enough runs for three levels of merging.
        items = [(i * 7 % 5, i) for i in range(2 * FAN_IN**2 + 3 * FAN_IN + 6)]
        ctx = ExecutionContext()
        with RunWriter(ctx, None, self.key, 1) as writer:
            for item in items:
                writer.add(item, 1)
            assert list(writer.merged()) == sorted(items, key=self.key)
        assert ctx.counters.spill_runs == len(items) - 1
        assert ctx.counters.spilled_rows == len(items) - 1
        assert open_files.peak <= open_file_bound(levels=3)
        assert live_spill_files() == frozenset()
        assert list(spill_dir.iterdir()) == []

    def test_failed_merge_write_leaks_nothing(self, spill_dir):
        # Writes 0..FAN_IN-1 are one-item runs; write FAN_IN is the first
        # record of the first merge pass.
        with fault_injection(FaultPlan(seed=0, fail_spill_at=FAN_IN)):
            with pytest.raises(SpillError, match="injected"):
                with RunWriter(ExecutionContext(), None, self.key, 1) as writer:
                    for item in self.ITEMS * 4:
                        writer.add(item, 1)
        assert live_spill_files() == frozenset()
        assert list(spill_dir.iterdir()) == []

    def test_failed_run_write_leaks_nothing(self, spill_dir):
        governor = Governor(Budget(memory_cells=6))
        ctx = ExecutionContext(governor=governor)
        # Writes 0-2 fill the first run; write 4 fails inside the second.
        with fault_injection(FaultPlan(seed=0, fail_spill_at=4)):
            with pytest.raises(SpillError, match="injected"):
                with self.writer(ctx, threshold=6) as writer:
                    self.feed(writer)
        assert governor.cells_in_use == 0
        assert live_spill_files() == frozenset()
        assert list(spill_dir.iterdir()) == []


class TestFanIn:
    """GApply over far more runs than ``FAN_IN``: the spilled partition
    stays byte-identical to in-memory with the open files bounded."""

    N_ROWS = 20_000

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.create_table(
            "t",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(None if i % 101 == 0 else i * 7 % 37, i) for i in range(self.N_ROWS)],
        )
        return db

    def test_one_row_runs_are_byte_identical(self, db, spill_dir, open_files):
        sql = "select gapply(select v from g) as (v) from t group by k : g"
        plain = db.sql(sql)
        # Width-2 rows over a 2-cell threshold: one run per row but the
        # last, 19,999 runs, three levels.
        spilled = db.sql(
            sql, planner_options=PlannerOptions(gapply_spill_threshold=2)
        )
        assert spilled.rows == plain.rows
        assert spilled.counters.spill_runs == self.N_ROWS - 1
        assert open_files.peak <= open_file_bound(levels=3)
        assert live_spill_files() == frozenset()
        assert list(spill_dir.iterdir()) == []
