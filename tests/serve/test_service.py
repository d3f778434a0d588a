"""The concurrent query service: admission control, priority and load
shedding, snapshot-isolated reads, queued-time deadlines, and graceful
shutdown that drains then cancels."""

from __future__ import annotations

import re
import threading
import time

import pytest

from repro.api import Database
from repro.errors import (
    CatalogError,
    PlanError,
    QueryCancelled,
    ServiceError,
    ServiceOverloaded,
    ServiceStopped,
    TimeoutExceeded,
)
from repro.execution.governor import Budget, Governor
from repro.execution.vector.batch import DEFAULT_BATCH_SIZE
from repro.serve import (
    AdmissionController,
    QueryClass,
    Service,
    ServiceConfig,
)
from repro.storage.types import DataType
from repro.xmlpub import tpch_supplier_view

from tests.xmlpub.queries import Q1


def small_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
        [(i, i % 3) for i in range(30)],
    )
    return db


def occupy_slot(controller: AdmissionController):
    """Acquire one slot on a helper thread; returns a release callback."""
    acquired = threading.Event()
    release = threading.Event()

    def hold():
        controller.acquire(0, Governor())
        acquired.set()
        release.wait(30.0)
        controller.release()

    thread = threading.Thread(target=hold)
    thread.start()
    assert acquired.wait(5.0)

    def done():
        release.set()
        thread.join(5.0)
        assert not thread.is_alive()

    return done


class TestAdmissionController:
    def test_fast_path_takes_a_free_slot(self):
        controller = AdmissionController(slots=2, max_queue_depth=4)
        controller.acquire(0, Governor())
        assert controller.slots_free() == 1
        controller.release()
        assert controller.slots_free() == 2

    def test_full_queue_sheds_with_depth_and_backoff(self):
        controller = AdmissionController(
            slots=1, max_queue_depth=0, backoff_base=0.1
        )
        done = occupy_slot(controller)
        try:
            with pytest.raises(ServiceOverloaded) as info:
                controller.acquire(0, Governor(), sql="select 1")
            assert info.value.retryable
            assert info.value.queue_depth == 0
            assert info.value.suggested_backoff == pytest.approx(0.1)
            assert info.value.sql == "select 1"
            assert controller.sheds == 1
        finally:
            done()

    def test_released_slot_goes_to_best_priority_waiter(self):
        controller = AdmissionController(slots=1, max_queue_depth=8)
        done = occupy_slot(controller)
        order: list[str] = []
        started = threading.Barrier(3, timeout=10.0)

        def wait_for_slot(name: str, priority: int):
            governor = Governor()
            started.wait()
            # The low-priority waiter queues first, so FIFO alone would
            # admit it first; priority must win instead.
            if priority == 0:
                time.sleep(0.1)
            controller.acquire(priority, governor)
            order.append(name)
            controller.release()

        batch = threading.Thread(target=wait_for_slot, args=("batch", 10))
        interactive = threading.Thread(
            target=wait_for_slot, args=("interactive", 0)
        )
        batch.start()
        interactive.start()
        started.wait()
        time.sleep(0.3)  # both are now queued behind the held slot
        done()
        batch.join(10.0)
        interactive.join(10.0)
        assert order == ["interactive", "batch"]
        assert controller.slots_free() == 1
        assert controller.peak_queue_depth == 2

    def test_queued_waiter_times_out_with_queued_context(self):
        controller = AdmissionController(slots=1, max_queue_depth=8)
        done = occupy_slot(controller)
        try:
            governor = Governor(Budget(timeout=0.1))
            start = time.monotonic()
            with pytest.raises(TimeoutExceeded) as info:
                controller.acquire(0, governor)
            assert time.monotonic() - start < 5.0
            assert "admission queue" in str(info.value)
            assert info.value.queued_seconds == pytest.approx(0.1, abs=0.2)
            assert info.value.executing_seconds == 0.0
        finally:
            done()

    def test_stop_rejects_new_and_queued_acquires(self):
        controller = AdmissionController(slots=1, max_queue_depth=8)
        done = occupy_slot(controller)
        errors: list[Exception] = []

        def queued():
            try:
                controller.acquire(0, Governor())
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        waiter = threading.Thread(target=queued)
        waiter.start()
        time.sleep(0.1)
        controller.stop()
        waiter.join(5.0)
        assert not waiter.is_alive()
        assert len(errors) == 1 and isinstance(errors[0], ServiceStopped)
        with pytest.raises(ServiceStopped):
            controller.acquire(0, Governor())
        done()

    def test_cancelled_governor_escapes_the_queue(self):
        controller = AdmissionController(slots=1, max_queue_depth=8)
        done = occupy_slot(controller)
        try:
            governor = Governor()
            governor.cancel("client gave up")
            with pytest.raises(QueryCancelled, match="client gave up"):
                controller.acquire(0, governor)
        finally:
            done()


class TestServiceQueries:
    def test_sql_round_trip_and_stats(self):
        service = Service(small_db())
        assert service.sql("select count(*) from t").rows == [(30,)]
        assert service.sql("select sum(a) from t").rows == [(435,)]
        stats = service.stats()
        assert stats["submitted"] == 2
        assert stats["completed"] == 2
        assert stats["active"] == 0
        assert stats["slots_free"] == stats["slots"]

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

    def test_query_errors_keep_slots_healthy(self):
        service = Service(small_db())
        with pytest.raises(CatalogError):
            service.sql("select * from missing_table")
        stats = service.stats()
        assert stats["failed"] == 1
        assert stats["slots_free"] == stats["slots"]
        assert service.sql("select count(*) from t").rows == [(30,)]

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
            ({"use_plan_cache": True, "optimize": False}, PlanError,
             "use_plan_cache=True demands", TypeError),
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
        done = occupy_slot(service.admission)
        try:
            with pytest.raises(error, match=re.escape(naming)):
                service.sql("select a from t", **bad_option)
            publish_naming = (
                "Service.submit_publish() got an unexpected"
                if publish_error is TypeError else naming
            )
            with pytest.raises(publish_error, match=re.escape(publish_naming)):
                service.submit_publish(
                    tpch_supplier_view(), Q1, **bad_option
                )
        finally:
            done()
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

    def test_shed_when_slot_held_and_queue_full(self):
        service = Service(
            small_db(),
            config=ServiceConfig(max_concurrency=1, max_queue_depth=0),
        )
        done = occupy_slot(service.admission)
        try:
            with pytest.raises(ServiceOverloaded) as info:
                service.sql("select count(*) from t")
            assert info.value.suggested_backoff > 0
            assert service.stats()["shed"] == 1
        finally:
            done()
        assert service.sql("select count(*) from t").rows == [(30,)]

    def test_queued_deadline_counts_against_timeout(self):
        # Satellite (c): a query admitted late must time out with context
        # distinguishing queue wait from execution time.
        service = Service(
            small_db(),
            config=ServiceConfig(max_concurrency=1, max_queue_depth=4),
        )
        done = occupy_slot(service.admission)
        try:
            with pytest.raises(TimeoutExceeded) as info:
                service.sql("select count(*) from t", timeout=0.1)
            assert info.value.queued_seconds > 0
            assert info.value.executing_seconds == 0.0
            assert "before executing at all" in str(info.value)
            assert service.stats()["expired_queued"] == 1
        finally:
            done()

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


class TestSnapshotIsolation:
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

    def test_concurrent_readers_never_see_torn_batches(self):
        # A deterministic mini version of the chaos ledger invariant:
        # every write is a zero-sum pair, so any torn snapshot would
        # break sum == 0.
        db = Database()
        db.create_table(
            "ledger", [("amount", DataType.INTEGER)], [(5,), (-5,)]
        )
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


class TestShutdown:
    def test_idle_shutdown_is_clean_and_idempotent(self):
        service = Service(small_db())
        report = service.shutdown(drain_timeout=1.0)
        assert report.clean
        assert report.in_flight == 0
        assert service.shutdown() is report
        assert service.health()["status"] == "stopped"

    def test_rejects_everything_after_shutdown(self):
        service = Service(small_db())
        service.shutdown()
        with pytest.raises(ServiceStopped):
            service.sql("select count(*) from t")
        with pytest.raises(ServiceStopped):
            service.insert("t", [(1, 1)])
        with pytest.raises(ServiceStopped):
            service.create_table("u", [("x", DataType.INTEGER)])
        with pytest.raises(ServiceStopped):
            service.drop_table("t")
        assert service.stats()["rejected_stopped"] == 1

    def test_drains_in_flight_queries(self):
        service = Service(small_db())
        results: list[list] = []

        def client():
            results.append(service.sql("select count(*) from t").rows)

        thread = threading.Thread(target=client)
        thread.start()
        thread.join(10.0)
        report = service.shutdown(drain_timeout=5.0)
        assert report.clean
        assert results == [[(30,)]]

    def test_cancels_stragglers_through_the_governor(self):
        # A five-way cross product (24M rows, tens of seconds) keeps one
        # query in flight well past the drain window; shutdown must
        # cancel it (typed error on the client thread) and still report
        # a clean exit.
        service = Service(small_db())
        outcome: list[object] = []
        sql = "select count(*) from t v, t w, t x, t y, t z"

        def client():
            try:
                service.sql(sql, optimize=False)
                outcome.append("completed")
            except QueryCancelled as error:
                outcome.append(error)

        thread = threading.Thread(target=client)
        thread.start()
        deadline = time.monotonic() + 5.0
        while service.stats()["active"] != 1:
            assert time.monotonic() < deadline, "query never started"
            time.sleep(0.01)
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
