"""Spill-to-disk partitioning: forced-spill GApply must be byte-identical
to in-memory execution for every paper-query formulation, under both
partitioning strategies, with real spill metrics and no files left
behind. Also the shared run-writer itself, and where ORDER BY and
DISTINCT put their runs."""

from __future__ import annotations

import pickle
import tempfile

import pytest

from repro.errors import MemoryBudgetExceeded, QueryCancelled, SpillError
from repro.execution.context import ExecutionContext
from repro.execution.gapply import HASH_PARTITION, SORT_PARTITION
from repro.execution.faults import FaultPlan, fault_injection
from repro.execution.governor import Budget, Governor
from repro.optimizer.planner import PlannerOptions
from repro.storage.spill import (
    RunWriter,
    SpillFile,
    SpillRun,
    live_spill_files,
    merge_runs,
)
from repro.workloads.queries import PAPER_QUERIES

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


class TestCodec:
    """The documented record framing round-trips exactly."""

    def test_append_read_at_roundtrip(self):
        rows = [(1, "x", None), (2.5, b"\x00bytes", True), ((),)]
        with SpillFile() as spill:
            offsets = [spill.append(row) for row in rows]
            assert spill.records == len(rows)
            # frame = 4-byte length + 4-byte crc32 + pickled payload
            assert spill.bytes_written == sum(
                8 + len(pickle.dumps(r, protocol=4)) for r in rows
            )
            # read-back in arbitrary order, repeatedly
            for offset, row in reversed(list(zip(offsets, rows))):
                assert spill.read_at(offset) == row
                assert spill.read_at(offset) == row

    def test_close_unlinks_file(self, tmp_path):
        spill = SpillFile()
        spill.append((1,))
        assert list(tmp_path.iterdir())
        spill.close()
        spill.close()  # idempotent
        assert list(tmp_path.iterdir()) == []

    def test_merge_runs_is_stable_in_argument_order(self, tmp_path):
        # Ties on the key must come out in run-argument order — the
        # property that makes spilled sort partitioning byte-identical.
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

    def test_injected_write_failure_is_typed(self):
        with fault_injection(FaultPlan(seed=1, fail_spill_at=1)):
            with SpillFile() as spill:
                spill.append((0,))
                with pytest.raises(SpillError, match="injected"):
                    spill.append((1,))


@pytest.mark.parametrize(
    "partitioning", [HASH_PARTITION, SORT_PARTITION]
)
@pytest.mark.parametrize(
    "name,kind,sql",
    FORMULATIONS,
    ids=[f"{name}-{kind}" for name, kind, _ in FORMULATIONS],
)
class TestSpillEquivalence:
    """All 10 paper formulations, both partitionings: spilled == in-memory."""

    def test_forced_spill_is_byte_identical(
        self, tpch_db, tmp_path, name, kind, sql, partitioning
    ):
        base = PlannerOptions(gapply_partitioning=partitioning)
        plain = tpch_db.sql(sql, optimize=False, planner_options=base)
        spilled = tpch_db.sql(
            sql,
            optimize=False,
            collect_metrics=True,
            planner_options=PlannerOptions(
                gapply_partitioning=partitioning,
                gapply_spill_threshold=SPILL_THRESHOLD,
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
            optimize=False,
            explain="analyze",
            planner_options=PlannerOptions(
                gapply_spill_threshold=SPILL_THRESHOLD
            ),
        )
        assert explanation.registry.total("spilled_rows") > 0
        plain = tpch_db.sql(sql, optimize=False)
        assert explanation.rows == plain.rows

    def test_no_spill_metrics_without_threshold(self, tpch_db):
        result = tpch_db.sql(
            PAPER_QUERIES[0].gapply_sql, optimize=False, collect_metrics=True
        )
        assert result.metrics.total("spilled_rows") == 0
        assert result.metrics.total("spill_runs") == 0


class TestSpillHygiene:
    """Checksummed records and leak-free error/cancel paths."""

    def test_corrupted_payload_raises_typed_checksum_error(self):
        spill = SpillFile()
        try:
            offset = spill.append(("intact", 1))
            spill.append(("second", 2))
            # Flip one payload byte on disk behind the codec's back.
            with open(spill.path, "r+b") as handle:
                handle.seek(offset + 8)  # past the length+crc32 header
                byte = handle.read(1)
                handle.seek(offset + 8)
                handle.write(bytes([byte[0] ^ 0xFF]))
            with pytest.raises(SpillError, match="checksum mismatch"):
                spill.read_at(offset)
        finally:
            spill.close()

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
        spill = SpillFile()
        spill.append((1,))
        assert spill.path in live_spill_files() - before
        spill.close()
        assert spill.path not in live_spill_files()

    def test_injected_spill_failure_leaks_nothing(self, tpch_db, tmp_path):
        before = live_spill_files()
        options = PlannerOptions(gapply_spill_threshold=SPILL_THRESHOLD)
        sql = PAPER_QUERIES[0].gapply_sql
        with fault_injection(FaultPlan(seed=3, fail_spill_at=0)):
            with pytest.raises(SpillError):
                tpch_db.sql(sql, optimize=False, planner_options=options)
        assert list(tmp_path.iterdir()) == []
        assert live_spill_files() == before

    def test_cancelled_spilling_query_leaks_nothing(self, tpch_db, tmp_path):
        before = live_spill_files()
        governor = Governor()
        governor.cancel("client disconnected")
        options = PlannerOptions(gapply_spill_threshold=SPILL_THRESHOLD)
        with pytest.raises(QueryCancelled):
            tpch_db.sql(
                PAPER_QUERIES[0].gapply_sql,
                optimize=False,
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
    """The one external sort behind GApply's sort partition, ORDER BY
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
