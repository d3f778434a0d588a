"""The concurrent query service.

Admission, priority hand-off, shedding, queued deadlines and shutdown are
held to one model (:mod:`repro.fuzz.service`), which the Hypothesis
machine in ``tests/properties/test_service_model.py`` drives at random.
The scripted cases here are runs of that model through ``play``: every
ending, error, report and ``stats()`` along the way is the model's, so
they assert only that the run reached the event they are named for. The
rest — budgets and run options on the way in, the governed root loop,
snapshot pinning, shutdown against a read between its grant and
execution and against a long-running one, sessions and config
validation — is beyond the model."""

from __future__ import annotations

import re
import threading

import pytest

from repro.api import Database
from repro.errors import (
    CatalogError,
    PlanError,
    QueryCancelled,
    ServiceError,
    ServiceStopped,
)
from repro.execution.governor import Budget, Governor
from repro.execution.vector.batch import DEFAULT_BATCH_SIZE
from repro.fuzz.service import CLASSES, play
from repro.serve import QueryClass, Service, ServiceConfig
from repro.storage.types import DataType
from repro.xmlpub import tpch_supplier_view

from tests.conftest import ALL_RULES_OFF
from tests.xmlpub.queries import Q1


def small_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
        [(i, i % 3) for i in range(30)],
    )
    return db


#: Model actions: a stream that holds its slot, a read that completes on
#: admission (or queues behind held slots), and one with a deadline.
STREAM = ("publish", "batch", None, False)
READ = ("sql", "count", "interactive", None, False)
TIMED = ("sql", "sum", "interactive", 1.5, False)
ONE_SLOT = ServiceConfig(max_concurrency=1, max_queue_depth=0, classes=CLASSES)


class TestAdmissionController:
    def test_fast_path_takes_a_free_slot(self):
        assert play([STREAM, READ]).seen["hand-off"] == 0

    def test_full_queue_sheds_with_depth_and_backoff(self):
        assert play([STREAM, STREAM, READ, READ, READ]).seen["shed"] == 1

    def test_released_slot_goes_to_best_priority_waiter(self):
        # The batch read queues first; the interactive one must get the slot.
        waiting = [("sql", "count", "batch", None, True), ("sql", "sum", "interactive", None, True)]
        assert play([STREAM, STREAM, *waiting, ("release", 0, "read")]).seen["hand-off"] == 1

    def test_queued_waiter_times_out_with_queued_context(self):
        assert play([STREAM, STREAM, TIMED, ("advance", 3.0)]).seen["queued-timeout"] == 1

    def test_stop_rejects_new_and_queued_acquires(self):
        assert play([STREAM, STREAM, READ, ("shutdown", False), READ]).seen["stopped-queued"] == 1

    def test_cancelled_governor_escapes_the_queue(self):
        assert play([STREAM, STREAM, READ, ("cancel", 0)]).seen["queued-cancel"] == 1


class TestServiceQueries:
    def test_sql_round_trip_and_stats(self):
        play([READ, ("sql", "sum", "batch", None, False), ("sql", "gapply", "batch", None, False)])

    def test_query_errors_keep_slots_healthy(self):
        play([("sql", "missing", "interactive", None, False), READ])

    def test_shed_when_slot_held_and_queue_full(self):
        assert play([STREAM, READ], ONE_SLOT).seen["shed"] == 1

    def test_queued_deadline_counts_against_timeout(self):
        # 1s + 1s queued passes the 1.5s deadline before any slot frees.
        script = [STREAM, STREAM, TIMED, ("advance", 1.0), ("advance", 1.0)]
        assert play(script).seen["queued-timeout"] == 1

    def test_executing_timeout_reports_queued_vs_executing_split(self):
        fake_now = [100.0]
        governor = Governor(Budget(timeout=1.0), clock=lambda: fake_now[0])
        fake_now[0] = 100.3
        governor.mark_admitted()
        fake_now[0] = 101.2  # 0.3s queued + 0.9s executing > 1.0s budget
        error = governor.timeout_error()
        assert error.queued_seconds == pytest.approx(0.3)
        assert error.executing_seconds == pytest.approx(0.9)
        assert "queued 0.300s, executing 0.900s" in str(error)

    def test_root_loop_ticks_the_governor_per_batch(self, monkeypatch):
        # Every service query runs under a governor; its output tally must
        # be the row count, charged a root batch at a time, not a row.
        ticks = []
        tick_output = Governor.tick_output

        def recording(self, n=1):
            ticks.append((self, n))
            tick_output(self, n)

        monkeypatch.setattr(Governor, "tick_output", recording)
        db = Database()
        db.create_table("t", [("a", DataType.INTEGER)], [(i,) for i in range(1000)])
        rows = Service(db).sql("select a from t where a >= 10").rows
        assert len(rows) == 990
        (governor,) = {governor for governor, _ in ticks}
        assert governor.output_rows == 990 == sum(n for _, n in ticks)
        assert len(ticks) == -(-1000 // DEFAULT_BATCH_SIZE)

    def test_unknown_query_class_is_typed(self):
        service = Service(small_db())
        with pytest.raises(ServiceError, match="unknown query class"):
            service.sql("select count(*) from t", query_class="nope")
        with pytest.raises(ServiceError, match="unknown query class"):
            service.session(query_class="nope")

    def test_class_budget_applies_when_no_explicit_knob(self):
        config = ServiceConfig(
            classes={
                "tiny": QueryClass("tiny", priority=0, budget=Budget(max_rows=2)),
            },
            default_class="tiny",
        )
        service = Service(small_db(), config=config)
        from repro.errors import RowBudgetExceeded

        with pytest.raises(RowBudgetExceeded):
            service.sql("select a from t")
        # An explicit knob overrides the class default.
        assert len(service.sql("select a from t", max_rows=100).rows) == 30
        assert service.stats()["failed"] == 1

    @pytest.mark.parametrize(
        "bad_option, error, naming, publish_error",
        [
            ({"enigne": "vector"}, TypeError, "Service.sql() got an unexpected",
             TypeError),
            # So is the removed engine choice.
            ({"engine": "volcano"}, TypeError, "Service.sql() got an unexpected",
             TypeError),
            ({"trace": True}, TypeError, "Service.sql() got an unexpected",
             TypeError),
            # The removed worker-pool knobs are unknown keywords like any other.
            ({"backend": "thread"}, TypeError, "Service.sql() got an unexpected",
             TypeError),
            ({"parallelism": 2}, TypeError, "Service.sql() got an unexpected",
             TypeError),
            # Options of Database.sql that Database.publish does not take are
            # typos to submit_publish, however valid their values.
            ({"explain": "verbose"}, PlanError, "explain must be", TypeError),
            # Uncached and rule-free runs are ``Database(plan_cache=None)``
            # and ``disabled_rules``, not run options.
            ({"use_plan_cache": True}, TypeError,
             "Service.sql() got an unexpected keyword argument 'use_plan_cache'",
             TypeError),
            ({"optimize": False}, TypeError,
             "Service.sql() got an unexpected keyword argument 'optimize'",
             TypeError),
        ],
    )
    def test_bad_option_is_refused_before_admission(
        self, bad_option, error, naming, publish_error
    ):
        # With the only slot held and no queue, anything that reaches the
        # admission gate is shed — so a bad option surfacing as its own
        # error proves it never asked for a slot.
        service = Service(
            small_db(),
            config=ServiceConfig(max_concurrency=1, max_queue_depth=0),
        )
        service.admission.acquire(0, Governor())
        with pytest.raises(error, match=re.escape(naming)):
            service.sql("select a from t", **bad_option)
        publish_naming = (
            "Service.submit_publish() got an unexpected"
            if publish_error is TypeError else naming
        )
        with pytest.raises(publish_error, match=re.escape(publish_naming)):
            service.submit_publish(tpch_supplier_view(), Q1, **bad_option)
        service.admission.release()
        assert service.sql("select count(*) from t").rows == [(30,)]
        stats = service.stats()
        assert stats["slots_free"] == stats["slots"]
        assert stats["submitted"] == 1
        assert stats.get("publish_submitted", 0) == 0
        assert stats["submitted"] == sum(
            stats.get(outcome, 0)
            for outcome in (
                "completed", "failed", "shed", "rejected_stopped",
                "expired_queued",
            )
        )


class TestSnapshotIsolation:
    def test_concurrent_readers_never_see_torn_batches(self):
        # Every write is a zero-sum pair, so any torn snapshot would
        # break sum == 0.
        db = Database()
        db.create_table("ledger", [("amount", DataType.INTEGER)], [(5,), (-5,)])
        service = Service(db)
        stop = threading.Event()
        bad: list[tuple] = []

        def reader():
            while not stop.is_set():
                rows = service.sql("select sum(amount) from ledger").rows
                if rows[0][0] != 0:
                    bad.append(rows[0])
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for thread in threads:
            thread.start()
        for value in range(1, 40):
            service.insert("ledger", [(value,), (-value,)])
        stop.set()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert bad == []
        assert service.sql("select count(*) from ledger").rows == [(80,)]

    def test_reads_pin_a_version_while_writes_land(self):
        service = Service(small_db())
        snap = service.database.snapshot()
        service.insert("t", [(100, 0), (101, 1)])
        # New reads see the write; the pinned snapshot never does.
        assert service.sql("select count(*) from t").rows == [(32,)]
        assert snap.sql("select count(*) from t").rows == [(30,)]

    def test_ddl_is_atomic_to_readers(self):
        service = Service(small_db())
        snap = service.database.snapshot()
        service.create_table("extra", [("x", DataType.INTEGER)], [(1,)])
        assert service.sql("select count(*) from extra").rows == [(1,)]
        with pytest.raises(CatalogError):
            snap.sql("select count(*) from extra")
        service.drop_table("extra")
        with pytest.raises(CatalogError):
            service.sql("select count(*) from extra")


def hold_snapshots(monkeypatch, service: Service) -> tuple[threading.Event, threading.Event]:
    """Make every read stop between its slot grant and execution, in
    ``Database.snapshot``; returns (a read is there, let reads go)."""
    pinned, go = threading.Event(), threading.Event()
    snapshot = service.database.snapshot

    def held():
        pinned.set()
        go.wait(30.0)
        return snapshot()

    monkeypatch.setattr(service.database, "snapshot", held)
    return pinned, go


class TestShutdown:
    def test_idle_shutdown_is_clean_and_idempotent(self):
        play([("shutdown", True), ("shutdown", False)])

    def test_drains_in_flight_queries(self):
        play([("sql", "count", "interactive", None, True), STREAM, ("shutdown", True)])

    def test_rejects_everything_after_shutdown(self):
        play([("shutdown", True), READ, ("insert",)])
        service = Service(small_db())
        service.shutdown()
        with pytest.raises(ServiceStopped):
            service.create_table("u", [("x", DataType.INTEGER)])
        with pytest.raises(ServiceStopped):
            service.drop_table("t")

    def test_counts_a_read_between_its_grant_and_execution(self, monkeypatch):
        # The read holds a slot but has not begun executing when shutdown
        # stops admission: the report must count it, and the read must
        # end before shutdown returns.
        service = Service(small_db())
        pinned, go = hold_snapshots(monkeypatch, service)
        stop, stopped = service.admission.stop, threading.Event()
        monkeypatch.setattr(service.admission, "stop", lambda: (stop(), stopped.set()))
        ended: list = []
        client = threading.Thread(
            target=lambda: ended.append(service.sql("select count(*) from t").rows)
        )
        client.start()
        assert pinned.wait(10.0)
        returned: list = []
        stopper = threading.Thread(
            target=lambda: returned.append((service.shutdown(drain_timeout=10.0), list(ended)))
        )
        stopper.start()
        assert stopped.wait(10.0)
        go.set()
        stopper.join(30.0)
        client.join(30.0)
        report, ended_by_then = returned[0]
        assert report.in_flight == 1 == report.drained + report.cancelled
        assert ended_by_then == [[(30,)]]
        stats = service.stats()
        assert stats["submitted"] == stats["completed"] == 1
        assert stats["active"] == 0 and stats["slots_free"] == stats["slots"]

    def test_cancels_stragglers_through_the_governor(self, monkeypatch):
        # A five-way cross product (24M rows, tens of seconds) keeps one
        # query in flight well past the drain window; shutdown must
        # cancel it (typed error on the client thread) and still report
        # a clean exit.
        service = Service(small_db())
        pinned, go = hold_snapshots(monkeypatch, service)
        go.set()
        outcome: list[object] = []
        sql = "select count(*) from t v, t w, t x, t y, t z"

        def client():
            try:
                service.sql(sql, planner_options=ALL_RULES_OFF)
                outcome.append("completed")
            except QueryCancelled as error:
                outcome.append(error)

        thread = threading.Thread(target=client)
        thread.start()
        assert pinned.wait(10.0)
        report = service.shutdown(drain_timeout=0.1, cancel_grace=30.0)
        thread.join(30.0)
        assert not thread.is_alive()
        assert report.leaked == 0
        assert report.cancelled == 1
        assert isinstance(outcome[0], QueryCancelled)
        assert service.stats()["active"] == 0

    def test_context_manager_shuts_down(self):
        with Service(small_db()) as service:
            assert service.sql("select count(*) from t").rows == [(30,)]
        with pytest.raises(ServiceStopped):
            service.sql("select count(*) from t")


class TestSession:
    def test_session_defaults_and_accounting(self):
        service = Service(small_db())
        with service.session(client="alice", query_class="batch") as session:
            assert session.sql("select count(*) from t").rows == [(30,)]
            session.insert("t", [(200, 2)])
            session.create_table("s", [("x", DataType.INTEGER)], [(9,)])
            session.drop_table("s")
        counters = session.queries.snapshot()
        assert counters == {"queries": 1, "writes": 1, "ddl": 2}
        with pytest.raises(ServiceError, match="closed"):
            session.sql("select 1 from t")

    def test_session_error_accounting(self):
        service = Service(small_db())
        session = service.session(client="bob")
        with pytest.raises(CatalogError):
            session.sql("select * from nope")
        assert session.queries.get("errors") == 1


class TestConfigValidation:
    def test_bad_knobs_are_typed(self):
        with pytest.raises(ServiceError):
            ServiceConfig(max_concurrency=0)
        with pytest.raises(ServiceError):
            ServiceConfig(max_queue_depth=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(default_class="missing")
        with pytest.raises(ServiceError, match="backoff_base"):
            ServiceConfig(backoff_base=-1.0)
