"""Write-ahead log unit tests: journaling, recovery, checkpoints,
fsync policies, segment rotation, and the durable Database/Service
surfaces. Corruption handling has its own battery in
``test_wal_codec.py``; seeded crash points live in
``tests/fuzz/test_durability_chaos.py``."""

from __future__ import annotations

import dataclasses
import inspect
import os
import pickle
import struct
import subprocess
import sys
import zlib

import pytest

from repro.api import Database
from repro.errors import (
    CatalogError,
    ServiceError,
    WalCorruptionError,
    WalError,
)
from repro.storage import DataType
from repro.storage.wal import (
    FSYNC_ALWAYS,
    FSYNC_NEVER,
    FSYNC_POLICIES,
    WriteAheadLog,
    _checkpoint_name,
    _load_checkpoint,
    catalog_state,
    recover,
    recoverable_range,
)
from repro.workloads.tpch import TpchConfig, load_tpch

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


def durable_db(path, **kwargs) -> Database:
    return Database.open(str(path), **kwargs)


def seed_mutations(db: Database) -> None:
    db.create_table("t", COLUMNS, [(1, "a"), (2, "b")], primary_key=["k"])
    db.catalog.insert_rows("t", [(3, "c"), (4, "d")])
    db.create_index("t", ["v"])
    db.create_table("u", COLUMNS, [])
    db.add_foreign_key("u", ["k"], "t", ["k"])


def checkpoint_files(path) -> list[str]:
    return sorted(n for n in os.listdir(path) if n.startswith("checkpoint-"))


def two_checkpoints(path, **kwargs) -> Database:
    """A closed store: ``t`` checkpointed at one row, then at two."""
    db = durable_db(path, fsync=FSYNC_NEVER, **kwargs)
    db.create_table("t", COLUMNS, [(1, "a")])
    db.checkpoint()
    db.catalog.insert_rows("t", [(2, "b")])
    db.checkpoint()
    db.close()
    return db


class TestRoundTrip:
    def test_reopen_recovers_everything(self, tmp_path):
        db = durable_db(tmp_path)
        seed_mutations(db)
        version = db.catalog.version
        db.close()

        again = durable_db(tmp_path)
        table = again.catalog.table("t")
        assert table.rows == [(1, "a"), (2, "b"), (3, "c"), (4, "d")]
        assert table.primary_key == ("k",)
        assert ("v",) in table.indexes
        assert again.catalog.has_table("u")
        fks = again.catalog.foreign_keys()
        assert len(fks) == 1 and fks[0].parent_table == "t"
        assert again.catalog.version == version
        assert again.wal.recoveries == 1
        again.close()

    def test_each_mutation_bumps_version_and_appends_once(self, tmp_path):
        db = durable_db(tmp_path)
        seed_mutations(db)
        stats = db.wal.stats()
        assert stats["wal_appends"] == 5 == db.catalog.version
        assert stats["wal_bytes"] > 0
        db.close()

    def test_drop_is_durable(self, tmp_path):
        db = durable_db(tmp_path)
        db.create_table("t", COLUMNS, [(1, "a")])
        db.create_table("gone", COLUMNS, [])
        db.catalog.drop("gone")
        db.close()
        again = durable_db(tmp_path)
        assert again.catalog.has_table("t")
        assert not again.catalog.has_table("gone")
        again.close()

    def test_reopened_tpch_store_keeps_its_indexes(self, tmp_path):
        # Recovered from the log alone, the TPC-H store must plan the
        # same index seeks the live one did.
        query = "select p_name from part where p_partkey = 3"

        def shape(db):
            indexes = {t.name: sorted(t.indexes) for t in db.catalog}
            plan = str(db.sql(query, explain=True))
            return db.catalog.version, indexes, plan

        db = durable_db(tmp_path, fsync=FSYNC_NEVER)
        load_tpch(db.catalog, TpchConfig(scale=0.01))
        live = shape(db)
        db.close()
        assert "IndexSeek(part.p_partkey" in live[2]
        assert shape(durable_db(tmp_path)) == live

    def test_fresh_directory_is_created(self, tmp_path):
        target = tmp_path / "nested" / "store"
        db = durable_db(target)
        db.create_table("t", COLUMNS, [(1, "a")])
        db.close()
        assert durable_db(target).catalog.table("t").rows == [(1, "a")]

    def test_failed_mutation_logs_nothing(self, tmp_path):
        db = durable_db(tmp_path)
        db.create_table("t", COLUMNS, [])
        appends = db.wal.wal_appends
        with pytest.raises(CatalogError):
            db.create_table("t", COLUMNS, [])  # duplicate: validated first
        assert db.wal.wal_appends == appends
        db.close()
        assert durable_db(tmp_path).catalog.version == 1


class TestFsyncPolicies:
    def test_always_syncs_every_append(self, tmp_path):
        db = durable_db(tmp_path, fsync=FSYNC_ALWAYS)
        seed_mutations(db)
        assert db.wal.fsyncs == db.wal.wal_appends == 5
        db.close()

    def test_never_never_syncs(self, tmp_path):
        db = durable_db(tmp_path, fsync=FSYNC_NEVER)
        seed_mutations(db)
        db.close()
        assert db.wal.fsyncs == 0

    def test_bad_policy_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path), fsync="sometimes")


class TestSegmentsAndCheckpoints:
    def test_rotation_splits_log_across_segments(self, tmp_path):
        db = durable_db(tmp_path, segment_bytes=128)
        for i in range(6):
            db.create_table(f"t{i}", COLUMNS, [(i, f"v{i}")])
        db.close()
        segments = [f for f in os.listdir(tmp_path) if f.startswith("wal-")]
        assert len(segments) > 1
        again = durable_db(tmp_path)
        assert again.catalog.version == 6
        assert all(
            again.catalog.table(f"t{i}").rows == [(i, f"v{i}")]
            for i in range(6)
        )
        again.close()

    def test_checkpoint_truncates_older_segments(self, tmp_path):
        db = durable_db(tmp_path, segment_bytes=128)
        for i in range(6):
            db.create_table(f"t{i}", COLUMNS, [(i, f"v{i}")])
        db.checkpoint()
        names = sorted(os.listdir(tmp_path))
        checkpoints = [n for n in names if n.startswith("checkpoint-")]
        segments = [n for n in names if n.startswith("wal-")]
        assert len(checkpoints) == 1
        assert len(segments) == 1  # the fresh post-checkpoint segment
        db.catalog.insert_rows("t0", [(99, "tail")])
        db.close()

        again = durable_db(tmp_path)
        assert again.catalog.version == 7
        assert (99, "tail") in again.catalog.table("t0").rows
        assert again.wal.stats()["recoveries"] == 1
        again.close()

    def test_second_checkpoint_leaves_one_checkpoint_file(self, tmp_path):
        db = two_checkpoints(tmp_path)
        (name,) = checkpoint_files(tmp_path)
        assert _load_checkpoint(str(tmp_path / name))["version"] == 2
        assert db.wal.checkpoints == 2
        again = durable_db(tmp_path)
        assert again.catalog.table("t").rows == [(1, "a"), (2, "b")]
        again.close()

    def test_checkpoint_of_empty_store(self, tmp_path):
        db = durable_db(tmp_path)
        db.checkpoint()
        db.close()
        again = durable_db(tmp_path)
        assert again.catalog.version == 0
        assert list(again.catalog) == []
        again.close()

    def test_recover_function_reports_replay_count(self, tmp_path):
        db = durable_db(tmp_path)
        seed_mutations(db)
        db.checkpoint()
        db.catalog.insert_rows("t", [(9, "i")])
        db.close()
        catalog, replayed = recover(str(tmp_path))
        assert replayed == 1  # everything else came from the checkpoint
        assert catalog.version == 6


class TestRetirement:
    def test_superseded_files_deleted_without_archive(self, tmp_path):
        two_checkpoints(tmp_path)
        assert len(checkpoint_files(tmp_path)) == 1
        assert not (tmp_path / "archive").exists()

    def test_archive_mode_moves_instead_of_deleting(self, tmp_path):
        two_checkpoints(tmp_path, archive=True)
        archived = os.listdir(tmp_path / "archive")
        # The pre-checkpoint segments and the first checkpoint moved.
        assert any(n.startswith("wal-") for n in archived)
        assert any(n.startswith("checkpoint-") for n in archived)
        assert len(checkpoint_files(tmp_path)) == 1
        # And the archived history still supports full replay (PITR).
        assert recoverable_range(str(tmp_path)) == (0, 2)


class TestPreFormatStores:
    """A store written before frame headers carried their own CRC is
    refused with the typed error, not read."""

    def test_open_and_cli_refuse_it(self, tmp_path):
        # The old format by hand: an 8-byte header (length, payload
        # CRC32), a dict record, and a checkpoint with a "format" key.
        old_header = struct.Struct(">II")

        def old_frame(record: dict) -> bytes:
            payload = pickle.dumps(record, protocol=4)
            return old_header.pack(len(payload), zlib.crc32(payload)) + payload

        scratch = Database()
        scratch.create_table("t", COLUMNS, [(1, "a")])
        state = catalog_state(scratch.catalog.snapshot())
        (tmp_path / _checkpoint_name(1)).write_bytes(
            old_frame({"format": "full", **state})
        )
        (tmp_path / ("wal-" + "0" * 19 + "2.log")).write_bytes(
            b"".join(
                old_frame({"version": version, "kind": "insert_rows",
                           "data": {"table": "t", "rows": [(version, "b")]}})
                for version in (2, 3)
            )
        )
        with pytest.raises(WalCorruptionError, match="predates this format"):
            Database.open(str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.storage.wal", str(tmp_path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH="src"),
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 1, proc.stderr
        assert "verify: FAILED — WalCorruptionError" in proc.stdout
        assert "predates this format" in proc.stdout
        # Without the checkpoint the old segment is refused the same way.
        os.unlink(tmp_path / _checkpoint_name(1))
        with pytest.raises(WalCorruptionError, match="predates this format"):
            Database.open(str(tmp_path))

    def test_replace_table_segment_is_refused(self, tmp_path):
        # An old segment whose first record is the deleted replace_table
        # kind: refused at its header, never replayed as a table swap.
        scratch = Database()
        scratch.create_table("t", COLUMNS, [(1, "a"), (2, "b")])
        table = catalog_state(scratch.catalog.snapshot())["tables"][0]
        payload = pickle.dumps(
            {"version": 1, "kind": "replace_table", "data": {"table": table}},
            protocol=4,
        )
        (tmp_path / ("wal-" + "0" * 19 + "1.log")).write_bytes(
            struct.pack(">II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(WalCorruptionError, match="predates this format"):
            recover(str(tmp_path))


class TestDurableService:
    def test_stats_surface_wal_counters(self, tmp_path):
        from repro.serve import Service, ServiceConfig

        config = ServiceConfig(durable=True, data_dir=str(tmp_path))
        service = Service(config=config)
        service.create_table("t", COLUMNS, [(1, "a")])
        service.insert("t", [(2, "b")])
        stats = service.stats()
        for key in (
            "wal_appends",
            "wal_bytes",
            "fsyncs",
            "checkpoints",
            "recoveries",
        ):
            assert key in stats
        assert stats["wal_appends"] == 2
        assert stats["recoveries"] == 1
        service.shutdown()

    def test_shutdown_checkpoints_and_survives_restart(self, tmp_path):
        from repro.serve import Service, ServiceConfig

        config = ServiceConfig(durable=True, data_dir=str(tmp_path))
        service = Service(config=config)
        service.create_table("t", COLUMNS, [(1, "a")])
        service.shutdown()
        assert service.database.wal.checkpoints == 1

        revived = Service(config=config)
        assert list(revived.sql("select count(*) from t").rows) == [(1,)]
        revived.shutdown()

    def test_durable_requires_data_dir(self):
        from repro.serve import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(durable=True)

    def test_database_and_durable_config_conflict(self, tmp_path):
        # Used to open nothing and ignore the config without a word.
        from repro.serve import Service, ServiceConfig

        store = tmp_path / "store"
        config = ServiceConfig(durable=True, data_dir=str(store))
        with pytest.raises(ServiceError, match=r"database=.*config="):
            Service(database=Database(), config=config)
        assert not store.exists()  # refused before anything is opened

    def test_stats_carry_the_recovery_counters(self, tmp_path):
        from repro.serve import Service, ServiceConfig

        bare = WriteAheadLog(str(tmp_path / "bare"))
        assert bare.stats()["replayed_records"] == 0
        config = ServiceConfig(durable=True, data_dir=str(tmp_path / "s"))
        service = Service(config=config)
        service.create_table("t", COLUMNS, [(1, "a")])
        service.database.wal.abandon()  # no shutdown checkpoint
        revived = Service(config=config)
        stats = revived.stats()
        assert stats["recoveries"] == 1
        assert stats["replayed_records"] == 1
        assert revived.database.wal.replayed_records == 1
        revived.shutdown()


class TestRemovedSurface:
    """The ``batch`` policy and the pass-through WAL knobs are gone:
    durability is configured in ``Database.open`` and nowhere else."""

    def test_batch_policy_is_refused_listing_the_three(self, tmp_path):
        with pytest.raises(WalError) as excinfo:
            durable_db(tmp_path / "s", fsync="batch")
        assert FSYNC_POLICIES == ("always", "group", "never")
        assert str(FSYNC_POLICIES) in str(excinfo.value)

    def test_batch_every_is_an_unknown_keyword(self, tmp_path):
        with pytest.raises(TypeError, match="batch_every"):
            durable_db(tmp_path, batch_every=2)
        with pytest.raises(TypeError, match="batch_every"):
            WriteAheadLog(str(tmp_path), batch_every=2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("wal_archive", True),
            ("wal_batch_every", 2),
            ("wal_segment_bytes", 4096),
            ("group_commit_delay", 0.0),
            ("checkpoint_on_shutdown", False),
        ],
    )
    def test_service_config_pass_throughs_are_gone(self, field, value):
        from repro.serve import ServiceConfig

        with pytest.raises(TypeError, match=field):
            ServiceConfig(**{field: value})

    def test_option_counts(self, tmp_path):
        from repro.serve import ServiceConfig

        def options(function, skip):
            return [
                name
                for name in inspect.signature(function).parameters
                if name not in skip
            ]

        assert len(dataclasses.fields(ServiceConfig)) == 8
        assert options(Database.open, {"path"}) == [
            "fsync", "segment_bytes", "group_commit_delay", "archive",
            "recover_to", "plan_cache",
        ]
        assert options(Database.checkpoint, {"self"}) == []
        assert options(WriteAheadLog.__init__, {"self", "directory"}) == [
            "fsync", "segment_bytes", "group_commit_delay", "archive",
        ]
        assert len(WriteAheadLog(str(tmp_path)).stats()) == 8
        assert len(FSYNC_POLICIES) == 3
