"""Durability costs: WAL commit latency and crash-recovery time.

The write-ahead log (``repro.storage.wal``) journals every catalog
mutation before applying it, so durable commit latency is dominated by
the fsync policy: ``always`` pays one ``fsync(2)`` per mutation,
``never`` leaves durability to the OS page cache (commit = one
unbuffered ``write(2)``).
This suite measures that ladder, plus the other number a durable store
owes its operators: how long ``Database.open`` takes to recover — as a
function of log length, and after a checkpoint truncates the log down
to one snapshot plus a short tail.

Expectations worth stating up front: ``always`` should be an order of
magnitude (or more, on real disks) slower per commit than ``never``;
recovery should scale linearly with replayed records; the checkpointed
reopen should beat full replay of the same history. The group-commit
cases measure the multi-writer story: with ``fsync="group"`` aggregate
commit throughput should *rise* with writer count (more commits share
each fsync), where ``always`` stays flat or degrades.

Run:  pytest benchmarks/bench_durability.py --benchmark-only
"""

import shutil
import tempfile
import threading

import pytest

from repro.api import Database
from repro.storage.types import DataType
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_GROUP,
    FSYNC_NEVER,
)

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]
POLICIES = (FSYNC_ALWAYS, FSYNC_NEVER)

#: Writer-count ladder for the group-commit throughput cases.
WRITER_COUNTS = (1, 4, 16)
#: Policies worth comparing under concurrency: the per-commit-fsync
#: baseline vs. the batching policy built for this shape.
CONCURRENT_POLICIES = (FSYNC_ALWAYS, FSYNC_GROUP)

#: Single-row commits per measured run in the pytest suite.
BENCH_COMMITS = 100


def _commit_rows(directory: str, fsync: str, count: int) -> int:
    """Open a durable store and commit ``count`` single-row inserts."""
    db = Database.open(directory, fsync=fsync)
    db.create_table("t", COLUMNS, [])
    for i in range(count):
        db.catalog.insert_rows("t", [(i, f"v{i}")])
    db.close()
    return count


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
    from repro.serve import Service

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


@pytest.mark.parametrize("fsync", POLICIES)
def test_commit_latency(benchmark, fsync):
    def run():
        directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
        try:
            return _commit_rows(directory, fsync, BENCH_COMMITS)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    assert benchmark(run) == BENCH_COMMITS


def test_recovery_replay(benchmark):
    directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        _commit_rows(directory, FSYNC_NEVER, BENCH_COMMITS)
        # Recovery replays the same (untouched) log on every repetition.
        assert benchmark(_reopen, directory) == BENCH_COMMITS
    finally:
        shutil.rmtree(directory, ignore_errors=True)


@pytest.mark.parametrize("fsync", CONCURRENT_POLICIES)
@pytest.mark.parametrize("writers", WRITER_COUNTS)
def test_concurrent_commit_throughput(benchmark, fsync, writers):
    per_writer = max(1, BENCH_COMMITS // writers)

    def run():
        directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
        try:
            return _concurrent_commits(directory, fsync, writers, per_writer)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    assert benchmark(run) == writers * per_writer


def test_recovery_from_checkpoint(benchmark):
    directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        db = Database.open(directory, fsync=FSYNC_NEVER)
        db.create_table("t", COLUMNS, [])
        for i in range(BENCH_COMMITS):
            db.catalog.insert_rows("t", [(i, f"v{i}")])
        db.checkpoint()
        db.close()
        assert benchmark(_reopen, directory) == BENCH_COMMITS
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _script_cases(scale: float, repetitions: int):
    from smokebench import measure_callable

    # Scale the commit count with the shared TPC-H scale knob so smoke
    # mode stays inside the CI budget (scale 0.02 -> 100 commits).
    ops = max(100, int(scale * 5000))
    cases = []

    for fsync in POLICIES:
        def run(fsync=fsync):
            directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
            try:
                return _commit_rows(directory, fsync, ops)
            finally:
                shutil.rmtree(directory, ignore_errors=True)

        cases.append(
            (f"commit-fsync-{fsync}", measure_callable(run, repetitions, work=ops))
        )

    for factor, label in ((1, "short"), (4, "long")):
        directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
        try:
            _commit_rows(directory, FSYNC_NEVER, ops * factor)
            cases.append(
                (
                    f"recover-log-{label}",
                    measure_callable(
                        lambda d=directory: _reopen(d),
                        repetitions,
                        work=ops * factor,
                    ),
                )
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
    try:
        db = Database.open(directory, fsync=FSYNC_NEVER)
        db.create_table("t", COLUMNS, [])
        for i in range(ops * 4):
            db.catalog.insert_rows("t", [(i, f"v{i}")])
        db.checkpoint()
        db.close()
        cases.append(
            (
                "recover-checkpointed",
                measure_callable(
                    lambda d=directory: _reopen(d), repetitions, work=ops * 4
                ),
            )
        )
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    # Group-commit throughput ladder: total commits held constant so
    # the numbers compare across writer counts; the group policy should
    # pull ahead as writers (and thus batching opportunities) grow.
    group_total = max(64, int(scale * 3200))
    for fsync in CONCURRENT_POLICIES:
        for writers in WRITER_COUNTS:
            per_writer = max(1, group_total // writers)

            def run(fsync=fsync, writers=writers, per_writer=per_writer):
                directory = tempfile.mkdtemp(prefix="repro-bench-wal-")
                try:
                    return _concurrent_commits(
                        directory, fsync, writers, per_writer
                    )
                finally:
                    shutil.rmtree(directory, ignore_errors=True)

            cases.append(
                (
                    f"group-commit-{fsync}-w{writers}",
                    measure_callable(
                        run, repetitions, work=writers * per_writer
                    ),
                )
            )

    return cases


if __name__ == "__main__":
    from smokebench import bench_main

    bench_main("durability", _script_cases)
