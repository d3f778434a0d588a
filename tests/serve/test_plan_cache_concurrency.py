"""Plan cache under concurrency: readers hammering cached shapes while a
writer mutates the catalog.

Invariants:

* **No stale plan vs. a newer catalog** — cache keys carry the catalog
  version and every service query runs on a version-pinned snapshot, so
  every result must be explainable by some committed table state, and a
  single client's successive reads must never go backwards in time.
* **No torn publication** — N threads racing the same cold shape all get
  correct rows, converge on one entry, and the entry's hits plus the
  misses cover every execution.
* **Exact hit/miss accounting** — ``LockedCounters`` under the single
  cache lock mean hits + misses equals exactly the number of
  cache-eligible executions, even under races.

Serial runs are the model's (:mod:`repro.fuzz.plancache`), threads are not.
"""

from __future__ import annotations

import threading
import traceback

import pytest

from repro.api import Database
from repro.serve import Service, ServiceConfig
from repro.storage import DataType

INITIAL_ROWS = 20
BATCHES = 8
BATCH_ROWS = 10
READERS = 4
OPS_PER_READER = 24


def build_database() -> Database:
    rows = [(i, i % 4, float(i)) for i in range(INITIAL_ROWS)]
    db = Database()
    db.create_table(
        "events",
        [("id", DataType.INTEGER), ("grp", DataType.INTEGER),
         ("v", DataType.FLOAT)],
        rows,
        primary_key=["id"],
    )
    return db


class TestStormWithWriter:
    """Readers over a small set of parameterized shapes; one writer
    issuing inserts and DDL, each bumping the catalog version."""

    @pytest.fixture
    def service(self):
        config = ServiceConfig(max_concurrency=8, max_queue_depth=256)
        with Service(build_database(), config=config) as svc:
            yield svc

    def test_no_stale_plans_and_exact_accounting(self, service):
        # Rows are id 0..total-1, so count(id >= k) == total - k: every
        # result reveals the snapshot's total row count exactly.
        valid_totals = {
            INITIAL_ROWS + BATCH_ROWS * j for j in range(BATCHES + 1)
        }
        errors: list[str] = []
        observed_totals: list[list[int]] = [[] for _ in range(READERS)]
        barrier = threading.Barrier(READERS + 1)

        def reader(slot: int) -> None:
            mine = observed_totals[slot]
            try:
                barrier.wait()
                for i in range(OPS_PER_READER):
                    if i % 2:
                        k = i % 4
                        result = service.sql(
                            f"select count(*) from events where id >= {k}"
                        )
                        mine.append(result.rows[0][0] + k)
                    else:
                        result = service.sql(
                            "select grp, count(*) from events group by grp"
                        )
                        mine.append(sum(count for _, count in result.rows))
            except Exception:
                errors.append(traceback.format_exc())

        def writer() -> None:
            try:
                barrier.wait()
                next_id = INITIAL_ROWS
                for j in range(BATCHES):
                    service.insert(
                        "events",
                        [
                            (next_id + i, (next_id + i) % 4,
                             float(next_id + i))
                            for i in range(BATCH_ROWS)
                        ],
                    )
                    next_id += BATCH_ROWS
                    # Unrelated DDL: extra version bumps that must only
                    # ever cause misses, never wrong rows.
                    service.create_table(
                        f"scratch_{j}", [("x", DataType.INTEGER)], [(j,)]
                    )
                    service.drop_table(f"scratch_{j}")
            except Exception:
                errors.append(traceback.format_exc())

        threads = [
            threading.Thread(target=reader, args=(slot,))
            for slot in range(READERS)
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, "\n".join(errors)

        for totals in observed_totals:
            assert len(totals) == OPS_PER_READER
            # Every revealed total is a committed state (no torn reads,
            # no phantom rows from a stale plan)...
            assert set(totals) <= valid_totals, (
                f"unexplainable table sizes: {sorted(set(totals) - valid_totals)}"
            )
            # ...and one client's snapshots never move backwards.
            assert totals == sorted(totals), (
                "a later query observed an older catalog state"
            )

        stats = service.stats()
        cache_stats = stats["plan_cache"]
        submitted = READERS * OPS_PER_READER
        assert stats["completed"] == submitted
        # Every query consulted the cache exactly once; accounting under
        # LockedCounters is exact, not approximate.
        assert cache_stats["hits"] + cache_stats["misses"] == submitted
        assert cache_stats["bypass"] == 0
        assert cache_stats["hits"] > 0


class TestColdRace:
    """N threads race the very first arrival of one shape."""

    def test_single_entry_no_torn_publication(self):
        db = build_database()
        threads_n = 8
        barrier = threading.Barrier(threads_n)
        errors: list[str] = []
        row_sets: list[list] = []
        lock = threading.Lock()

        def racer() -> None:
            try:
                barrier.wait()
                result = db.sql("select id from events where v < 10.0")
                with lock:
                    row_sets.append(sorted(result.rows))
            except Exception:
                errors.append(traceback.format_exc())

        threads = [
            threading.Thread(target=racer) for _ in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors, "\n".join(errors)
        expected = sorted((i,) for i in range(10))
        assert all(rows == expected for rows in row_sets)

        # One winner, everyone adopted it: a single fully-built entry
        # that every execution either missed or hit.
        assert len(db.plan_cache) == 1
        entry = db.plan_cache.entries()[0]
        assert entry.template is not None
        assert entry.report is not None
        stats = db.plan_cache.stats()
        assert entry.hits + stats["misses"] == threads_n
        assert stats["hits"] + stats["misses"] == threads_n
        assert stats["misses"] >= 1

