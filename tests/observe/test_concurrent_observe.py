"""Observability under concurrency: metrics registries, tracers and the
shared LockedCounters must stay consistent when queries run in parallel
threads (satellite of the concurrent-service work)."""

from __future__ import annotations

import threading

from repro.api import Database
from repro.observe import LockedCounters, MetricsRegistry, Tracer
from repro.storage.types import DataType


def build_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
        [(i, i % 4) for i in range(64)],
    )
    return db


class TestSharedDatabaseMetrics:
    def test_two_threads_collecting_metrics_do_not_corrupt_counters(self):
        # The regression the satellite asks for: each query gets its own
        # registry, so concurrent runs must report exactly the counters a
        # solo run reports.
        db = build_db()
        solo = db.sql("select count(*) from t", collect_metrics=True)
        expected = solo.metrics.snapshot()
        results: list[dict] = []
        errors: list[BaseException] = []
        barrier = threading.Barrier(2, timeout=10.0)

        def query():
            try:
                barrier.wait()
                for _ in range(10):
                    result = db.sql(
                        "select count(*) from t", collect_metrics=True
                    )
                    results.append(result.metrics.snapshot())
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=query) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert errors == []
        assert len(results) == 20
        for snapshot in results:
            assert snapshot == expected

    def test_concurrent_traced_gapply_queries_stay_consistent(self):
        db = build_db()
        sql = (
            "select gapply(select sum(a) from g) as (total) "
            "from t group by b : g"
        )
        expected = sorted(db.sql(sql, optimize=False).rows)
        errors: list[str] = []

        def query(tid: int):
            result = db.sql(
                sql,
                optimize=False,
                collect_metrics=True,
            )
            if sorted(result.rows) != expected:
                errors.append(f"thread {tid}: wrong rows")
            if result.metrics.total("groups_formed") != 4:
                errors.append(
                    f"thread {tid}: groups_formed "
                    f"{result.metrics.total('groups_formed')}"
                )

        threads = [
            threading.Thread(target=query, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert errors == []


class TestRegistryThreadSafety:
    def test_concurrent_ad_hoc_registration_never_loses_records(self):
        # record_for self-registration takes the registry lock; hammer it
        # from several threads and check every prefix landed exactly once.
        from repro.execution.base import PMaterialized
        from repro.storage.schema import Schema

        registry = MetricsRegistry()
        schema = Schema.of(("a", DataType.INTEGER))
        plans = [PMaterialized(schema, [(1,)]) for _ in range(32)]
        barrier = threading.Barrier(4, timeout=10.0)

        def register(chunk):
            barrier.wait()
            for plan in chunk:
                registry.record_for(plan)

        threads = [
            threading.Thread(target=register, args=(plans[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        prefixes = {
            record.path.split(".")[0]
            for record in registry.records()
            if record.path.startswith("?")
        }
        assert prefixes == {f"?{i}" for i in range(32)}


class TestTracerThreadSafety:
    def test_spans_from_many_threads_all_recorded(self):
        tracer = Tracer()
        barrier = threading.Barrier(4, timeout=10.0)

        def emit():
            barrier.wait()
            for i in range(200):
                span = tracer.begin("operator", f"op{i}")
                tracer.end(span, rows_out=i)

        threads = [threading.Thread(target=emit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert len(tracer.spans) == 800
        assert tracer.dropped == 0
        span_ids = [span.span_id for span in tracer.spans]
        assert len(set(span_ids)) == 800
        assert all(span.end_ns is not None for span in tracer.spans)


class TestLockedCounters:
    def test_concurrent_increments_sum_exactly(self):
        counters = LockedCounters()
        barrier = threading.Barrier(8, timeout=10.0)

        def bump():
            barrier.wait()
            for _ in range(1000):
                counters.inc("hits")

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert counters.get("hits") == 8000

    def test_add_many_is_atomic_to_snapshots(self):
        # Paired updates through add_many must never appear torn in a
        # snapshot: the two keys always move together.
        counters = LockedCounters(credits=0, debits=0)
        stop = threading.Event()
        torn: list[dict] = []

        def writer():
            for _ in range(2000):
                counters.add_many(credits=1, debits=-1)
            stop.set()

        def reader():
            while not stop.is_set():
                snapshot = counters.snapshot()
                if snapshot["credits"] + snapshot["debits"] != 0:
                    torn.append(snapshot)
                    return

        threads = [
            threading.Thread(target=writer),
            threading.Thread(target=reader),
            threading.Thread(target=reader),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
        assert torn == []
        assert counters.snapshot() == {"credits": 2000, "debits": -2000}

    def test_max_of_tracks_peaks(self):
        counters = LockedCounters()
        assert counters.max_of("peak", 5) == 5
        assert counters.max_of("peak", 3) == 5
        assert counters.max_of("peak", 9) == 9
