"""Streaming XML publishing through the concurrent query service.

``Service.submit_publish`` shares the admission pipeline with
``Service.sql`` but holds its concurrency slot for the *lifetime of the
stream*. These tests pin down that lifecycle: slots held while
streaming, shedding under load, slot release on every exit path
(exhaustion, abandon, cancel, translation failure), shutdown
force-closing stalled streams, and per-stream accounting in
``Service.stats()``.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import (
    QueryCancelled,
    ServiceOverloaded,
    ServiceStopped,
    XmlPublishError,
)
from repro.serve import Service, ServiceConfig
from repro.storage.spill import live_spill_files
from repro.storage.types import DataType
from repro.xmlpub import FORMULATIONS, tpch_supplier_view

from tests.xmlpub.queries import Q1, Q2

BAD_QUERY = "for $s in /doc(x)/wrong/path return $s"


def xml_db() -> Database:
    db = Database()
    db.create_table(
        "part",
        [
            ("p_partkey", DataType.INTEGER),
            ("p_name", DataType.STRING),
            ("p_retailprice", DataType.FLOAT),
        ],
        [(i, f"part{i}", float(i * 10)) for i in range(1, 13)],
        primary_key=["p_partkey"],
    )
    db.create_table(
        "partsupp",
        [("ps_suppkey", DataType.INTEGER), ("ps_partkey", DataType.INTEGER)],
        [(100 + (i % 3), i) for i in range(1, 13)],
    )
    db.create_table(
        "supplier",
        [("s_suppkey", DataType.INTEGER), ("s_name", DataType.STRING)],
        [(100 + i, f"supp{i}") for i in range(3)],
        primary_key=["s_suppkey"],
    )
    return db


def reference_document(db: Database) -> bytes:
    return db.publish(tpch_supplier_view(), Q1).read_all()


class TestPublishRoundTrip:
    def test_document_and_stats(self):
        db = xml_db()
        expected = reference_document(db)
        with Service(db) as service:
            stream = service.submit_publish(tpch_supplier_view(), Q1)
            assert stream.read_all() == expected
            stats = service.stats()
            assert stats["publish_submitted"] == 1
            assert stats["published_docs"] == 1
            assert stats["published_bytes"] == len(expected)
            assert stats["publish_chunks"] == stream.stats.chunks
            assert stats["publish_peak_buffer_bytes"] > 0
            assert stats["active_streams"] == 0
            assert stats["slots_free"] == stats["slots"]

    def test_interleaved_concurrent_streams(self):
        db = xml_db()
        expected = reference_document(db)
        config = ServiceConfig(max_concurrency=2)
        with Service(db, config=config) as service:
            first = service.submit_publish(
                tpch_supplier_view(), Q1, chunk_bytes=64
            )
            second = service.submit_publish(
                tpch_supplier_view(), Q1, chunk_bytes=64
            )
            assert service.stats()["active_streams"] == 2
            assert service.stats()["slots_free"] == 0
            collected: dict[int, list[bytes]] = {0: [], 1: []}
            iterators = [iter(first), iter(second)]
            live = {0, 1}
            while live:
                for index in sorted(live):
                    try:
                        collected[index].append(next(iterators[index]))
                    except StopIteration:
                        live.discard(index)
            assert b"".join(collected[0]) == expected
            assert b"".join(collected[1]) == expected
            stats = service.stats()
            assert stats["published_docs"] == 2
            assert stats["slots_free"] == 2

    def test_session_publish_accounting(self):
        db = xml_db()
        expected = reference_document(db)
        with Service(db) as service:
            with service.session(client="alice") as session:
                assert session.publish(
                    tpch_supplier_view(), Q1
                ).read_all() == expected
                with pytest.raises(XmlPublishError):
                    session.publish(tpch_supplier_view(), BAD_QUERY)
            counters = session.queries.snapshot()
            assert counters["publishes"] == 1
            assert counters["errors"] == 1


class TestPublishThroughPlanCache:
    """Service publishes share the database's plan cache: the options are
    resolved before admission, the plan is looked up after the snapshot
    is pinned, so entries are keyed by the version the stream reads."""

    @pytest.mark.parametrize("formulation", FORMULATIONS)
    @pytest.mark.parametrize("query", [Q1, Q2], ids=["q1", "q2"])
    def test_repeated_publish_never_reoptimizes(
        self, optimizer_runs, query, formulation
    ):
        db = xml_db()
        uncached = Database(db.catalog, plan_cache=None)
        expected = uncached.publish(
            tpch_supplier_view(), query, formulation
        ).read_all()
        with Service(db) as service:
            for _ in range(3):
                stream = service.submit_publish(
                    tpch_supplier_view(), query, formulation
                )
                assert stream.read_all() == expected
            assert len(optimizer_runs) == 1 + 1  # + the uncached twin
            cache = service.stats()["plan_cache"]
            assert (cache["misses"], cache["hits"]) == (1, 2)

    @pytest.mark.parametrize("query", [Q1, Q2], ids=["q1", "q2"])
    def test_pinned_stream_keeps_its_own_versions_plan(
        self, optimizer_runs, query
    ):
        db = xml_db()
        view = tpch_supplier_view()
        uncached = Database(db.catalog, plan_cache=None)
        old_document = uncached.publish(view, query).read_all()
        with Service(db) as service:
            pinned = service.submit_publish(view, query, chunk_bytes=64)
            head = next(pinned)
            service.insert("part", [(13, "part13", 130.0)])
            service.insert("partsupp", [(100, 13)])
            new_document = uncached.publish(view, query).read_all()
            assert new_document != old_document
            # A writer landed: the next publish plans at the new version…
            fresh = service.submit_publish(view, query).read_all()
            assert fresh == new_document
            # …while the stream admitted before it finishes the document
            # of the version it pinned, on the plan built for that version.
            assert head + pinned.read_all() == old_document
            assert service.submit_publish(view, query).read_all() == fresh
            cache = service.stats()["plan_cache"]
            assert (cache["misses"], cache["hits"]) == (2, 1)
        assert len(optimizer_runs) == 2 + 2  # + the uncached twin's two


class TestSlotLifecycle:
    def test_slot_held_while_stream_open(self):
        config = ServiceConfig(max_concurrency=2)
        with Service(xml_db(), config=config) as service:
            stream = service.submit_publish(
                tpch_supplier_view(), Q1, chunk_bytes=64
            )
            next(iter(stream))
            stats = service.stats()
            assert stats["active_streams"] == 1
            assert stats["slots_free"] == 1
            stream.read_all()
            stats = service.stats()
            assert stats["active_streams"] == 0
            assert stats["slots_free"] == 2

    def test_streams_occupying_all_slots_shed_new_work(self):
        config = ServiceConfig(max_concurrency=1, max_queue_depth=0)
        with Service(xml_db(), config=config) as service:
            stream = service.submit_publish(
                tpch_supplier_view(), Q1, chunk_bytes=64
            )
            next(iter(stream))
            with pytest.raises(ServiceOverloaded):
                service.sql("select count(*) from part")
            with pytest.raises(ServiceOverloaded):
                service.submit_publish(tpch_supplier_view(), Q1)
            assert service.stats()["shed"] == 2
            stream.close()
            # The slot came back: work flows again.
            assert service.sql("select count(*) from part").rows == [(12,)]

    def test_translation_failure_releases_slot_immediately(self):
        config = ServiceConfig(max_concurrency=1, max_queue_depth=0)
        with Service(xml_db(), config=config) as service:
            with pytest.raises(XmlPublishError):
                service.submit_publish(tpch_supplier_view(), BAD_QUERY)
            stats = service.stats()
            assert stats["publish_failed"] == 1
            assert stats["slots_free"] == 1
            assert stats["active_streams"] == 0
            assert service.sql("select count(*) from part").rows == [(12,)]

    def test_abandoned_stream_counts_and_releases(self):
        with Service(xml_db()) as service:
            stream = service.submit_publish(
                tpch_supplier_view(), Q1, chunk_bytes=64
            )
            next(iter(stream))
            stream.close()
            stats = service.stats()
            assert stats["publish_abandoned"] == 1
            assert stats["active_streams"] == 0
            assert stats["slots_free"] == stats["slots"]
            assert live_spill_files() == frozenset()

    def test_midstream_cancel_counts_and_releases(self):
        with Service(xml_db()) as service:
            stream = service.submit_publish(
                tpch_supplier_view(), Q1, chunk_bytes=64
            )
            iterator = iter(stream)
            next(iterator)
            stream.governor.cancel()
            with pytest.raises(QueryCancelled):
                for _chunk in iterator:
                    pass
            stats = service.stats()
            assert stats["publish_cancelled"] == 1
            assert stats["slots_free"] == stats["slots"]
            assert live_spill_files() == frozenset()


class TestShutdown:
    def test_force_closes_stalled_stream(self):
        service = Service(xml_db())
        stream = service.submit_publish(
            tpch_supplier_view(), Q1, chunk_bytes=64
        )
        next(iter(stream))
        # The client never iterates again, so cancellation alone cannot
        # drain this stream — shutdown must force-close it.
        report = service.shutdown(drain_timeout=0.1, cancel_grace=0.2)
        assert report.clean and report.leaked == 0
        assert report.in_flight == 1 and report.cancelled == 1
        assert stream.closed
        stats = service.stats()
        assert stats["publish_abandoned"] == 1
        assert stats["active_streams"] == 0
        assert live_spill_files() == frozenset()

    def test_rejects_publish_after_shutdown(self):
        service = Service(xml_db())
        service.shutdown()
        with pytest.raises(ServiceStopped):
            service.submit_publish(tpch_supplier_view(), Q1)
        assert service.stats()["rejected_stopped"] == 1
