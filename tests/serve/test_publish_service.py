"""Streaming XML publishing through the concurrent query service.

A publish stream's slot lifecycle — held while open, shed behind full
slots, given back on every exit path, force-closed by shutdown — is held
to the service model (:mod:`repro.fuzz.service`); the scripted cases
here are runs of it through ``play``, asserting only that the run
reached its event. The rest — byte counters, chunk-interleaved streams,
session accounting and the shared plan cache — is beyond the model.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import XmlPublishError
from repro.fuzz.service import BAD_QUERY, CLASSES, document, ledger_database, play
from repro.serve import Service, ServiceConfig
from repro.xmlpub import FORMULATIONS, tpch_supplier_view

from tests.xmlpub.queries import Q1, Q2

#: Model actions: a stream that holds its slot, and a read.
STREAM = ("publish", "batch", None, False)
READ = ("sql", "count", "interactive", None, False)
ONE_SLOT = ServiceConfig(max_concurrency=1, max_queue_depth=0, classes=CLASSES)


class TestPublishRoundTrip:
    def test_document_and_stats(self):
        db = ledger_database(0)
        expected = document(db)
        with Service(db) as service:
            stream = service.submit_publish(tpch_supplier_view(), Q1)
            assert stream.read_all() == expected
            stats = service.stats()
            assert stats["published_bytes"] == len(expected)
            assert stats["publish_chunks"] == stream.stats.chunks
            assert stats["publish_peak_buffer_bytes"] > 0

    def test_interleaved_concurrent_streams(self):
        db = ledger_database(0)
        expected = document(db)
        with Service(db, config=ServiceConfig(max_concurrency=2)) as service:
            streams = [
                iter(service.submit_publish(tpch_supplier_view(), Q1, chunk_bytes=64))
                for _ in range(2)
            ]
            collected: list[list[bytes]] = [[], []]
            live = {0, 1}
            while live:
                for index in sorted(live):
                    try:
                        collected[index].append(next(streams[index]))
                    except StopIteration:
                        live.discard(index)
            assert [b"".join(chunks) for chunks in collected] == [expected, expected]

    def test_session_publish_accounting(self):
        db = ledger_database(0)
        expected = document(db)
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
        db = ledger_database(0)
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
        db = ledger_database(0)
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
        play([STREAM, ("release", 0, "read")])

    def test_streams_occupying_all_slots_shed_new_work(self):
        script = [STREAM, READ, STREAM, ("release", 0, "abandon"), READ]
        assert play(script, ONE_SLOT).seen["shed"] == 2

    def test_translation_failure_releases_slot_immediately(self):
        play([("publish", "interactive", None, True), READ], ONE_SLOT)

    def test_abandoned_stream_counts_and_releases(self):
        play([STREAM, ("release", 0, "abandon")])

    def test_midstream_cancel_counts_and_releases(self):
        play([STREAM, ("release", 0, "cancel")])


class TestShutdown:
    def test_force_closes_stalled_stream(self):
        assert play([STREAM, ("shutdown", False)]).seen["stream-force-close"] == 1

    def test_rejects_publish_after_shutdown(self):
        play([("shutdown", True), STREAM])
