"""Durability costs: WAL commit latency and crash-recovery time.

The write-ahead log (``repro.storage.wal``) journals every catalog
mutation before applying it, so durable commit latency is dominated by
the fsync policy: ``always`` pays one ``fsync(2)`` per mutation,
``never`` leaves durability to the OS page cache (commit = one
unbuffered ``write(2)``).
This experiment measures that ladder, plus the other number a durable
store owes its operators: how long ``Database.open`` takes to recover — as
a function of log length, and after a checkpoint truncates the log down
to one snapshot plus a short tail.

Expectations worth stating up front: ``always`` should be an order of
magnitude (or more, on real disks) slower per commit than ``never``;
recovery should scale linearly with replayed records; the checkpointed
reopen should beat full replay of the same history. The group-commit
cases measure the multi-writer story: with ``fsync="group"`` aggregate
commit throughput should *rise* with writer count (more commits share
each fsync), where ``always`` stays flat or degrades.
"""

from __future__ import annotations

import tempfile
import threading

from repro.api import Database
from repro.bench.harness import Measurement, measure_callable
from repro.serve import Service
from repro.storage.types import DataType
from repro.storage.wal import FSYNC_ALWAYS, FSYNC_GROUP, FSYNC_NEVER

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]
POLICIES = (FSYNC_ALWAYS, FSYNC_NEVER)

#: Writer-count ladder for the group-commit throughput cases.
WRITER_COUNTS = (1, 4, 16)
#: Policies worth comparing under concurrency: the per-commit-fsync
#: baseline vs. the batching policy built for this shape.
CONCURRENT_POLICIES = (FSYNC_ALWAYS, FSYNC_GROUP)


def _store_directory() -> tempfile.TemporaryDirectory:
    return tempfile.TemporaryDirectory(
        prefix="repro-bench-wal-", ignore_cleanup_errors=True
    )


def _commit_rows(directory: str, fsync: str, count: int) -> Database:
    """Open a durable store and commit ``count`` single-row inserts; the
    caller closes it."""
    db = Database.open(directory, fsync=fsync)
    db.create_table("t", COLUMNS, [])
    for i in range(count):
        db.catalog.insert_rows("t", [(i, f"v{i}")])
    return db


def _reopen(directory: str) -> int:
    db = Database.open(directory)
    rows = len(db.catalog.table("t").rows)
    db.close()
    return rows


def _concurrent_commits(
    directory: str, fsync: str, writers: int, per_writer: int
) -> int:
    """``writers`` threads each durably commit ``per_writer`` rows
    through the shared service; returns the total commit count."""
    # Zero coalescing delay: batches form only from genuine overlap
    # (followers arriving while the leader's fsync is in flight), so the
    # ladder measures batching itself, not the latency cap.
    service = Service(
        Database.open(directory, fsync=fsync, group_commit_delay=0.0)
    )
    service.create_table("t", COLUMNS, [])

    def writer(worker: int) -> None:
        for i in range(per_writer):
            service.insert("t", [(worker * 1_000_000 + i, "x")])

    threads = [
        threading.Thread(target=writer, args=(w,)) for w in range(writers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    service.shutdown()
    return writers * per_writer


def cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    # Scale the commit count with the shared TPC-H scale knob so smoke
    # mode stays inside the CI budget (scale 0.02 -> 100 commits).
    ops = max(100, int(scale * 5000))
    named = []

    for fsync in POLICIES:

        def commit() -> int:
            with _store_directory() as directory:
                _commit_rows(directory, fsync, ops).close()
            return ops

        named.append(
            (f"commit-fsync-{fsync}", measure_callable(commit, repetitions, work=ops))
        )

    # Recovery replays the same (untouched) store on every repetition.
    for label, count, checkpoint in (
        ("log-short", ops, False),
        ("log-long", ops * 4, False),
        ("checkpointed", ops * 4, True),
    ):
        with _store_directory() as directory:
            db = _commit_rows(directory, FSYNC_NEVER, count)
            if checkpoint:
                db.checkpoint()
            db.close()
            measurement = measure_callable(
                lambda: _reopen(directory), repetitions, work=count
            )
        named.append((f"recover-{label}", measurement))

    # Group-commit throughput ladder: total commits held constant so
    # the numbers compare across writer counts; the group policy should
    # pull ahead as writers (and thus batching opportunities) grow.
    group_total = max(64, int(scale * 3200))
    for fsync in CONCURRENT_POLICIES:
        for writers in WRITER_COUNTS:
            per_writer = max(1, group_total // writers)

            def group_commit() -> int:
                with _store_directory() as directory:
                    return _concurrent_commits(directory, fsync, writers, per_writer)

            named.append(
                (
                    f"group-commit-{fsync}-w{writers}",
                    measure_callable(
                        group_commit, repetitions, work=writers * per_writer
                    ),
                )
            )
    return named
