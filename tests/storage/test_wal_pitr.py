"""Point-in-time recovery: ``Database.open(recover_to=...)`` over the
archived segment/checkpoint chain reproduces any committed version;
anything else — interior of a transaction, beyond the newest version,
before retained history — fails with the typed
:class:`~repro.errors.PointInTimeUnavailable`."""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import PointInTimeUnavailable
from repro.storage import DataType
from repro.storage.wal import (
    FSYNC_NEVER,
    recover_point_in_time,
    recoverable_range,
)

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


def build_history(path: str, *, archive: bool = True) -> dict[int, list]:
    """A store with autocommits, a committed txn, a rolled-back txn, and
    checkpoints. Returns {boundary_version: expected rows of "t"}."""
    db = Database.open(path, fsync=FSYNC_NEVER, archive=archive)
    boundaries: dict[int, list] = {0: None}
    db.create_table("t", COLUMNS, [(1, "a")])  # v1
    boundaries[1] = [(1, "a")]
    db.catalog.insert_rows("t", [(2, "b")])  # v2
    boundaries[2] = [(1, "a"), (2, "b")]
    db.checkpoint()
    with db.begin():  # v3 begin, v4+v5 ops, v6 commit
        db.catalog.insert_rows("t", [(3, "c")])
        db.catalog.insert_rows("t", [(4, "d")])
    boundaries[6] = [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
    txn = db.begin()  # v7 begin, v8 op, v9 abort
    db.catalog.insert_rows("t", [(5, "never")])
    txn.rollback()
    boundaries[9] = boundaries[6]
    db.checkpoint()
    db.catalog.insert_rows("t", [(6, "f")])  # v10
    boundaries[10] = boundaries[6] + [(6, "f")]
    db.close()
    return boundaries


class TestBoundaryReproduction:
    def test_every_committed_boundary_is_reproducible(self, tmp_path):
        boundaries = build_history(str(tmp_path))
        for version, rows in boundaries.items():
            catalog = recover_point_in_time(str(tmp_path), version)
            assert catalog.version == version
            if rows is None:
                assert not catalog.has_table("t")
            else:
                assert catalog.table("t").rows == rows, f"v{version}"

    def test_database_open_recover_to(self, tmp_path):
        boundaries = build_history(str(tmp_path))
        db = Database.open(str(tmp_path), recover_to=6)
        assert db.catalog.version == 6
        assert db.catalog.table("t").rows == boundaries[6]
        # A PITR database is a detached read view of history: it has no
        # WAL, so nothing it does can overwrite the store it came from.
        assert db.wal is None
        assert list(db.sql("select count(*) from t").rows) == [(4,)]
        db.close()
        # The real store is untouched and still opens at the newest state.
        live = Database.open(str(tmp_path))
        assert live.catalog.version == 10
        live.close()

    def test_rollback_boundary_reproduces_pre_txn_rows(self, tmp_path):
        build_history(str(tmp_path))
        catalog = recover_point_in_time(str(tmp_path), 9)
        # v9 is the abort record: same rows as v6, later version.
        assert catalog.version == 9
        assert catalog.table("t").rows == [
            (1, "a"), (2, "b"), (3, "c"), (4, "d"),
        ]

    def test_recover_to_zero_is_the_empty_store(self, tmp_path):
        build_history(str(tmp_path))
        catalog = recover_point_in_time(str(tmp_path), 0)
        assert catalog.version == 0
        assert catalog.table_names() == []


class TestTypedRefusals:
    def test_beyond_newest_version(self, tmp_path):
        build_history(str(tmp_path))
        with pytest.raises(PointInTimeUnavailable):
            recover_point_in_time(str(tmp_path), 999)

    def test_interior_of_a_transaction(self, tmp_path):
        build_history(str(tmp_path))
        for interior in (3, 4, 5):  # begin and ops of the committed txn
            with pytest.raises(PointInTimeUnavailable) as excinfo:
                recover_point_in_time(str(tmp_path), interior)
            # The refusal names the nearest committed boundaries so the
            # operator can retry with a valid target.
            message = str(excinfo.value)
            assert "2" in message and "6" in message, message

    def test_interior_of_rolled_back_transaction(self, tmp_path):
        build_history(str(tmp_path))
        for interior in (7, 8):
            with pytest.raises(PointInTimeUnavailable):
                recover_point_in_time(str(tmp_path), interior)

    def test_history_truncated_without_archive(self, tmp_path):
        boundaries = build_history(str(tmp_path), archive=False)
        # Each checkpoint deleted the segments and checkpoint before it:
        # the range starts at the one surviving checkpoint (v9).
        assert recoverable_range(str(tmp_path)) == (9, 10)
        with pytest.raises(PointInTimeUnavailable):
            recover_point_in_time(str(tmp_path), 1)
        # Every committed boundary inside the range still reproduces.
        for version in (9, 10):
            catalog = recover_point_in_time(str(tmp_path), version)
            assert catalog.version == version
            assert catalog.table("t").rows == boundaries[version]

    def test_database_open_propagates_refusal(self, tmp_path):
        build_history(str(tmp_path))
        with pytest.raises(PointInTimeUnavailable):
            Database.open(str(tmp_path), recover_to=4)


class TestRecoverableRange:
    def test_archive_store_covers_full_history(self, tmp_path):
        build_history(str(tmp_path))
        assert recoverable_range(str(tmp_path)) == (0, 10)

    def test_fresh_store_without_checkpoints(self, tmp_path):
        db = Database.open(str(tmp_path), fsync=FSYNC_NEVER)
        db.create_table("t", COLUMNS, [(1, "a")])
        db.catalog.insert_rows("t", [(2, "b")])
        db.close()
        assert recoverable_range(str(tmp_path)) == (0, 2)

    def test_range_endpoints_are_recoverable(self, tmp_path):
        build_history(str(tmp_path), archive=False)
        oldest, newest = recoverable_range(str(tmp_path))
        for version in (oldest, newest):
            catalog = recover_point_in_time(str(tmp_path), version)
            assert catalog.version == version
