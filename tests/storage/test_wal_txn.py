"""Multi-statement transaction battery: atomic commit/rollback through
:meth:`Database.begin`, recovery atomicity (a crash before the durable
commit record rolls the whole transaction back), version accounting,
ownership rules, and poisoned-WAL semantics. Crash-point fuzzing of the
same surface lives in ``tests/fuzz/test_durability_chaos.py``."""

from __future__ import annotations

import threading

import pytest

from repro.api import Database
from repro.errors import CatalogError, WalError
from repro.storage import DataType
from repro.storage.wal import FSYNC_NEVER, recover

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


def seeded_db(path) -> Database:
    db = Database.open(str(path), fsync=FSYNC_NEVER)
    db.create_table("t", COLUMNS, [(1, "a")])
    return db


class TestCommitAndRollback:
    def test_commit_makes_all_operations_durable(self, tmp_path):
        db = seeded_db(tmp_path)
        txn = db.begin()
        db.catalog.insert_rows("t", [(2, "b")])
        db.create_table("u", COLUMNS, [(10, "x")])
        db.create_index("t", ["v"])
        txn.commit()
        db.close()

        again = Database.open(str(tmp_path))
        assert again.catalog.table("t").rows == [(1, "a"), (2, "b")]
        assert again.catalog.table("u").rows == [(10, "x")]
        assert ("v",) in again.catalog.table("t").indexes
        again.close()

    def test_rollback_discards_in_memory_and_on_disk(self, tmp_path):
        db = seeded_db(tmp_path)
        txn = db.begin()
        db.catalog.insert_rows("t", [(2, "b")])
        db.create_table("u", COLUMNS, [])
        txn.rollback()
        # In memory: the pre-transaction state is restored.
        assert db.catalog.table("t").rows == [(1, "a")]
        assert not db.catalog.has_table("u")
        db.close()
        # On disk: the abort record makes the discard part of history.
        again = Database.open(str(tmp_path))
        assert again.catalog.table("t").rows == [(1, "a")]
        assert not again.catalog.has_table("u")
        again.close()

    @pytest.mark.parametrize(
        "archive", [False, True], ids=["truncate", "archive"]
    )
    def test_rolled_back_drop_survives_the_next_checkpoint(
        self, tmp_path, archive
    ):
        # A checkpoint holds the catalog as it is, not the records that
        # led there: the rolled-back DROP must leave t0 in it.
        path = str(tmp_path)
        db = Database.open(path, fsync=FSYNC_NEVER, archive=archive)
        db.create_table("t0", COLUMNS, [(1, "a"), (2, "b")])
        db.checkpoint()
        txn = db.begin()
        db.catalog.drop("t0")
        txn.rollback()
        db.checkpoint()
        version = db.catalog.version
        db.close()
        rows = [(1, "a"), (2, "b")]
        assert Database.open(path, archive=archive).table("t0").rows == rows
        at = Database.open(path, recover_to=version)
        assert at.table("t0").rows == rows

    def test_context_manager_commits_on_clean_exit(self, tmp_path):
        db = seeded_db(tmp_path)
        with db.begin():
            db.catalog.insert_rows("t", [(2, "b")])
        db.close()
        catalog, _ = recover(str(tmp_path))
        assert catalog.table("t").rows == [(1, "a"), (2, "b")]

    def test_context_manager_rolls_back_on_exception(self, tmp_path):
        db = seeded_db(tmp_path)
        with pytest.raises(RuntimeError):
            with db.begin():
                db.catalog.insert_rows("t", [(2, "b")])
                raise RuntimeError("client bug")
        assert db.catalog.table("t").rows == [(1, "a")]
        db.close()
        catalog, _ = recover(str(tmp_path))
        assert catalog.table("t").rows == [(1, "a")]

    def test_explicit_terminate_inside_block_wins(self, tmp_path):
        db = seeded_db(tmp_path)
        with db.begin() as txn:
            db.catalog.insert_rows("t", [(2, "b")])
            txn.rollback()
        assert txn.state == "rolled back"
        assert db.catalog.table("t").rows == [(1, "a")]
        db.close()

    def test_handle_is_single_use(self, tmp_path):
        db = seeded_db(tmp_path)
        txn = db.begin()
        txn.commit()
        with pytest.raises(CatalogError, match="already committed"):
            txn.commit()
        with pytest.raises(CatalogError, match="already committed"):
            txn.rollback()
        db.close()

    def test_works_on_non_durable_database(self):
        db = Database()
        db.create_table("t", COLUMNS, [(1, "a")])
        with pytest.raises(ValueError):
            with db.begin():
                db.catalog.insert_rows("t", [(2, "b")])
                raise ValueError("abort")
        assert db.catalog.table("t").rows == [(1, "a")]
        with db.begin():
            db.catalog.insert_rows("t", [(3, "c")])
        assert db.catalog.table("t").rows == [(1, "a"), (3, "c")]


class TestRecoveryAtomicity:
    def test_crash_before_commit_rolls_back_everything(self, tmp_path):
        db = seeded_db(tmp_path)
        db.begin()
        db.catalog.insert_rows("t", [(2, "b")])
        db.create_table("u", COLUMNS, [(10, "x")])
        # Simulated crash: the operation records are on disk but no
        # terminator ever lands.
        db.wal.close()
        catalog, _ = recover(str(tmp_path))
        assert catalog.table("t").rows == [(1, "a")]
        assert not catalog.has_table("u")
        # Reopening for writes works: the torn transaction was rolled
        # back physically, so new history appends cleanly.
        again = Database.open(str(tmp_path))
        again.catalog.insert_rows("t", [(5, "e")])
        again.close()
        catalog, _ = recover(str(tmp_path))
        assert catalog.table("t").rows == [(1, "a"), (5, "e")]

    def test_committed_txn_then_torn_txn(self, tmp_path):
        db = seeded_db(tmp_path)
        with db.begin():
            db.catalog.insert_rows("t", [(2, "b")])
        db.begin()
        db.catalog.insert_rows("t", [(3, "c")])
        db.wal.close()
        catalog, _ = recover(str(tmp_path))
        # The committed transaction survives; the torn one vanishes.
        assert catalog.table("t").rows == [(1, "a"), (2, "b")]

    def test_empty_torn_txn_rolls_back(self, tmp_path):
        db = seeded_db(tmp_path)
        db.begin()
        db.wal.close()
        catalog, _ = recover(str(tmp_path))
        assert catalog.version == 1
        assert catalog.table("t").rows == [(1, "a")]


class TestVersionAccounting:
    def test_begin_ops_and_commit_each_consume_a_version(self, tmp_path):
        db = seeded_db(tmp_path)
        base = db.catalog.version
        with db.begin():
            db.catalog.insert_rows("t", [(2, "b")])
            db.catalog.insert_rows("t", [(3, "c")])
        # begin + 2 inserts + commit = 4 versions.
        assert db.catalog.version == base + 4
        db.close()
        again = Database.open(str(tmp_path))
        assert again.catalog.version == base + 4
        again.close()

    def test_rollback_never_rewinds_the_version(self, tmp_path):
        db = seeded_db(tmp_path)
        base = db.catalog.version
        with pytest.raises(RuntimeError):
            with db.begin():
                db.catalog.insert_rows("t", [(2, "b")])
                raise RuntimeError
        # begin + insert + abort all keep their versions: the plan cache
        # keys on version, so a rewound counter could alias stale plans.
        assert db.catalog.version == base + 3
        db.close()
        again = Database.open(str(tmp_path))
        assert again.catalog.version == base + 3
        assert again.catalog.table("t").rows == [(1, "a")]
        again.close()

    def test_snapshot_during_txn_sees_pre_txn_state(self, tmp_path):
        db = seeded_db(tmp_path)
        pre_version = db.catalog.version
        with db.begin():
            db.catalog.insert_rows("t", [(2, "b")])
            snap = db.catalog.snapshot()
            assert snap.version == pre_version
            assert snap.table("t").rows == [(1, "a")]
        assert db.catalog.snapshot().table("t").rows == [(1, "a"), (2, "b")]
        db.close()


class TestOwnershipAndNesting:
    def test_nested_begin_rejected(self, tmp_path):
        db = seeded_db(tmp_path)
        with db.begin():
            with pytest.raises(CatalogError, match="nested"):
                db.begin()
        db.close()

    def test_commit_from_another_thread_rejected(self, tmp_path):
        db = seeded_db(tmp_path)
        txn = db.begin()
        errors: list[BaseException] = []

        def foreign_commit():
            try:
                db.catalog.commit_transaction()
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        worker = threading.Thread(target=foreign_commit)
        worker.start()
        worker.join()
        assert len(errors) == 1
        assert isinstance(errors[0], CatalogError)
        assert "another thread" in str(errors[0])
        txn.commit()  # the owner can still finish normally
        db.close()

    def test_concurrent_writer_queues_behind_txn(self, tmp_path):
        db = seeded_db(tmp_path)
        order: list[str] = []
        txn = db.begin()
        db.catalog.insert_rows("t", [(2, "b")])

        def blocked_writer():
            db.catalog.insert_rows("t", [(3, "c")])
            order.append("writer")

        worker = threading.Thread(target=blocked_writer)
        worker.start()
        worker.join(timeout=0.2)
        assert worker.is_alive()  # still parked on the txn gate
        order.append("commit")
        txn.commit()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert order == ["commit", "writer"]
        assert db.catalog.table("t").rows == [(1, "a"), (2, "b"), (3, "c")]
        db.close()

    def test_commit_without_begin_rejected(self, tmp_path):
        db = seeded_db(tmp_path)
        with pytest.raises(CatalogError, match="no active transaction"):
            db.catalog.commit_transaction()
        db.close()


class TestFailureSemantics:
    def test_poisoned_wal_fails_commit_and_restores_state(self, tmp_path):
        db = seeded_db(tmp_path)
        txn = db.begin()
        db.catalog.insert_rows("t", [(2, "b")])
        db.wal.poison("simulated media failure")
        with pytest.raises(WalError):
            txn.commit()
        assert txn.state == "failed"
        # In-memory state rolled back to the pre-transaction basis: the
        # operations can never become durable, so pretending they
        # applied would ack work recovery must drop.
        assert db.catalog.table("t").rows == [(1, "a")]
        catalog, _ = recover(str(tmp_path))
        assert catalog.table("t").rows == [(1, "a")]

    def test_checkpoint_refused_inside_txn(self, tmp_path):
        db = seeded_db(tmp_path)
        with db.begin():
            with pytest.raises(WalError, match="transaction"):
                db.checkpoint()
        db.close()
