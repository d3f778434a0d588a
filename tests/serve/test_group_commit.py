"""Group commit under real concurrency: N writer threads through one
durable :class:`~repro.serve.Service` with ``fsync="group"``. Every
acknowledged commit must survive a crash immediately after the batched
fsync, the fsync count must stay well below the commit count, and the
acknowledged commit order must match the recovered version order."""

from __future__ import annotations

import threading

from repro.api import Database
from repro.serve import Service
from repro.storage import DataType
from repro.storage.wal import recover

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


def group_service(path, *, delay: float = 0.002) -> Service:
    return Service(
        Database.open(str(path), fsync="group", group_commit_delay=delay)
    )


class TestBatching:
    N_THREADS = 8
    N_ROUNDS = 10

    def test_aligned_writers_share_fsyncs(self, tmp_path):
        service = group_service(tmp_path)
        service.create_table("t", COLUMNS, [])
        barrier = threading.Barrier(self.N_THREADS)
        failures: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                for round_no in range(self.N_ROUNDS):
                    barrier.wait()  # all workers commit at once
                    service.insert("t", [(worker * 1000 + round_no, "x")])
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures

        stats = service.stats()
        commits = self.N_THREADS * self.N_ROUNDS + 1  # + create_table
        assert stats["group_commits"] == commits
        # The whole point: one fsync acknowledges many commits. With the
        # workers barrier-aligned the average batch must be >= 2.
        assert stats["group_batches"] * 2 <= commits, stats
        assert stats["fsyncs"] < commits, stats
        # Nothing was lost to the batching.
        rows = service.sql("select count(*) from t").rows
        assert list(rows) == [(commits - 1,)]
        service.shutdown()


class TestDurabilityUnderConcurrency:
    N_THREADS = 6
    N_TXNS = 8

    def test_acked_commits_survive_crash_in_version_order(self, tmp_path):
        service = group_service(tmp_path, delay=0.001)
        service.create_table("t", COLUMNS, [])
        catalog = service.database.catalog
        acked: list[tuple[int, list[tuple]]] = []
        acked_lock = threading.Lock()
        failures: list[BaseException] = []

        def writer(worker: int) -> None:
            try:
                for i in range(self.N_TXNS):
                    tag = f"w{worker}.{i}"
                    rows = [(worker * 1000 + i * 10 + j, tag) for j in range(2)]
                    txn = service.begin()
                    service.insert("t", rows)
                    if i % 4 == 3:
                        txn.rollback()  # never acked, must never appear
                        continue
                    # The gate is ours until commit returns, so the
                    # version is stable: the commit record will be the
                    # next one.
                    commit_version = catalog.version + 1
                    txn.commit()
                    with acked_lock:
                        acked.append((commit_version, rows))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        assert len(acked) == self.N_THREADS * (self.N_TXNS - self.N_TXNS // 4)

        # Crash: abandon the handles without close/checkpoint. Everything
        # acknowledged was fsynced (group commit waits for the batch), so
        # recovery must reproduce it all.
        service.database.wal.abandon()
        recovered, _ = recover(str(tmp_path))
        expected_rows = [
            row
            for _, rows in sorted(acked, key=lambda item: item[0])
            for row in rows
        ]
        assert recovered.table("t").rows == expected_rows
        assert not any(
            "never" in str(row) for row in recovered.table("t").rows
        )

    def test_single_writer_group_policy_is_still_durable(self, tmp_path):
        service = group_service(tmp_path, delay=0.0)
        service.create_table("t", COLUMNS, [(1, "a")])
        with service.begin():
            service.insert("t", [(2, "b")])
        service.database.wal.abandon()
        recovered, _ = recover(str(tmp_path))
        assert recovered.table("t").rows == [(1, "a"), (2, "b")]

    def test_session_begin_routes_through_service(self, tmp_path):
        service = group_service(tmp_path, delay=0.0)
        service.create_table("t", COLUMNS, [])
        with service.session(client="alice") as session:
            with session.begin():
                session.insert("t", [(1, "a")])
            assert session.queries.snapshot()["transactions"] == 1
        stats = service.stats()
        assert stats["transactions"] == 1
        service.shutdown()
        recovered, _ = recover(str(tmp_path))
        assert recovered.table("t").rows == [(1, "a")]
