"""WAL frame-codec corruption battery.

The framing rule under test (DESIGN.md §15): damage that reaches the
end of the newest segment is a **torn tail** — recovery physically
truncates back to the last good frame and returns the acknowledged
prefix — while every other damage, a bit flip anywhere included, must
raise the typed :class:`~repro.errors.WalCorruptionError`, never
silently drop acknowledged records. The header CRC vouches for each
frame's length, so no flip can masquerade as a torn tail.
"""

from __future__ import annotations

import os
import random
import shutil

import pytest

from repro.api import Database
from repro.errors import WalCorruptionError, WalError
from repro.storage import DataType
from repro.storage.wal import (
    _HEADER,
    FSYNC_NEVER,
    WriteAheadLog,
    _encode,
    _frames,
    recover,
    table_state,
)

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]

#: Mutations in the reference store: 1 create + N_INSERTS inserts.
N_INSERTS = 9


def build_store(path: str) -> None:
    db = Database.open(path, fsync=FSYNC_NEVER)
    db.create_table("t", COLUMNS, [])
    for i in range(N_INSERTS):
        db.catalog.insert_rows("t", [(i, f"v{i}")])
    db.close()


def segment_path(path: str) -> str:
    names = [n for n in os.listdir(path) if n.startswith("wal-")]
    assert len(names) == 1
    return os.path.join(path, names[0])


def frame_offsets(path: str) -> list[int]:
    """Start offset of every frame in a segment, plus the end offset."""
    return [offset for offset, *_ in _frames(path)] + [os.path.getsize(path)]


def recovered_rows(path: str) -> list[tuple]:
    catalog, _ = recover(path)
    return list(catalog.table("t").rows) if catalog.has_table("t") else []


class TestTornTails:
    def test_cut_mid_payload_truncates_to_prefix(self, tmp_path):
        build_store(str(tmp_path))
        seg = segment_path(str(tmp_path))
        offsets = frame_offsets(seg)
        # Cut into the middle of the final frame's payload.
        cut = offsets[-2] + _HEADER.size + 3
        with open(seg, "r+b") as handle:
            handle.truncate(cut)
        catalog, replayed = recover(str(tmp_path))
        assert catalog.version == N_INSERTS  # lost exactly the last insert
        assert replayed == N_INSERTS
        # The tail was *physically* truncated back to clean history.
        assert os.path.getsize(seg) == offsets[-2]

    def test_cut_mid_header_truncates(self, tmp_path):
        build_store(str(tmp_path))
        seg = segment_path(str(tmp_path))
        offsets = frame_offsets(seg)
        with open(seg, "r+b") as handle:
            handle.truncate(offsets[-2] + 5)  # 5 of 12 header bytes
        catalog, _ = recover(str(tmp_path))
        assert catalog.version == N_INSERTS

    def test_every_cut_point_recovers_exact_prefix(self, tmp_path):
        build_store(str(tmp_path / "ref"))
        seg = segment_path(str(tmp_path / "ref"))
        offsets = frame_offsets(seg)
        size = offsets[-1]
        rng = random.Random(0xC0DEC)
        cuts = {offsets[1], size - 1} | {
            rng.randrange(1, size) for _ in range(40)
        }
        for cut in sorted(cuts):
            target = tmp_path / f"cut{cut}"
            shutil.copytree(tmp_path / "ref", target)
            with open(segment_path(str(target)), "r+b") as handle:
                handle.truncate(cut)
            catalog, _ = recover(str(target))
            # Exactly the frames wholly before the cut survive.
            expected = sum(1 for end in offsets[1:] if end <= cut)
            assert catalog.version == expected, f"cut at byte {cut}"
            if expected > 1:
                rows = catalog.table("t").rows
                assert rows == [(i, f"v{i}") for i in range(expected - 1)]

    def test_appending_after_torn_tail_recovery_works(self, tmp_path):
        build_store(str(tmp_path))
        seg = segment_path(str(tmp_path))
        offsets = frame_offsets(seg)
        with open(seg, "r+b") as handle:
            handle.truncate(offsets[-2] + 2)
        db = Database.open(str(tmp_path))
        db.catalog.insert_rows("t", [(77, "resumed")])
        db.close()
        rows = recovered_rows(str(tmp_path))
        assert rows[-1] == (77, "resumed")
        assert len(rows) == N_INSERTS  # N-1 surviving + the new one


class TestMidLogDamage:
    def test_payload_flip_in_interior_record_raises(self, tmp_path):
        build_store(str(tmp_path))
        seg = segment_path(str(tmp_path))
        offsets = frame_offsets(seg)
        flip_at = offsets[3] + _HEADER.size + 2  # payload of 4th record
        with open(seg, "r+b") as handle:
            handle.seek(flip_at)
            byte = handle.read(1)
            handle.seek(flip_at)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError):
            recover(str(tmp_path))

    def test_payload_flip_in_final_record_raises(self, tmp_path):
        # Closed §15 gap: a complete final frame whose CRC fails is bit
        # rot, not a torn write (torn writes shorten the file, they do
        # not rewrite bytes) — silently truncating it would drop an
        # acknowledged commit. Typed refusal instead.
        build_store(str(tmp_path))
        seg = segment_path(str(tmp_path))
        offsets = frame_offsets(seg)
        flip_at = offsets[-2] + _HEADER.size + 2
        with open(seg, "r+b") as handle:
            handle.seek(flip_at)
            byte = handle.read(1)
            handle.seek(flip_at)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError):
            recover(str(tmp_path))

    def test_flip_in_older_segment_raises(self, tmp_path):
        # Multi-segment store: damage in any non-final segment can never
        # be a torn tail.
        db = Database.open(str(tmp_path), fsync=FSYNC_NEVER, segment_bytes=64)
        db.create_table("t", COLUMNS, [])
        for i in range(N_INSERTS):
            db.catalog.insert_rows("t", [(i, f"v{i}")])
        db.close()
        segments = sorted(
            n for n in os.listdir(tmp_path) if n.startswith("wal-")
        )
        assert len(segments) > 2
        victim = os.path.join(tmp_path, segments[0])
        with open(victim, "r+b") as handle:
            handle.seek(_HEADER.size + 1)
            byte = handle.read(1)
            handle.seek(_HEADER.size + 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError):
            recover(str(tmp_path))

    def test_random_flips_yield_prefix_or_typed_error(self, tmp_path):
        # Every flip is caught by a CRC, so the typed error is the only
        # outcome; no prefix of history is served instead.
        build_store(str(tmp_path / "ref"))
        size = os.path.getsize(segment_path(str(tmp_path / "ref")))
        rng = random.Random(0xF11B)
        for trial in range(40):
            target = tmp_path / f"flip{trial}"
            shutil.copytree(tmp_path / "ref", target)
            flip_at = rng.randrange(size)
            with open(segment_path(str(target)), "r+b") as handle:
                handle.seek(flip_at)
                byte = handle.read(1)
                handle.seek(flip_at)
                handle.write(bytes([byte[0] ^ (1 << rng.randrange(8))]))
            with pytest.raises(WalCorruptionError):
                recovered_rows(str(target))


class TestVersionDiscipline:
    def _raw_wal(self, path: str) -> tuple[WriteAheadLog, dict]:
        scratch = Database()
        scratch.create_table("t", COLUMNS, [(0, "v0")])
        state = table_state(scratch.catalog.table("t"))
        wal = WriteAheadLog(path, fsync=FSYNC_NEVER)
        wal.append(1, "create_table", {"table": state, "replace": False})
        return wal, state

    def test_duplicate_versions_replay_idempotently(self, tmp_path):
        wal, _ = self._raw_wal(str(tmp_path))
        record = {"table": "t", "rows": [(1, "v1")]}
        wal.append(2, "insert_rows", record)
        wal.append(2, "insert_rows", record)  # stale duplicate
        wal.append(3, "insert_rows", {"table": "t", "rows": [(2, "v2")]})
        wal.close()
        catalog, replayed = recover(str(tmp_path))
        assert replayed == 3
        assert catalog.version == 3
        assert catalog.table("t").rows == [(0, "v0"), (1, "v1"), (2, "v2")]

    def test_version_gap_raises(self, tmp_path):
        wal, _ = self._raw_wal(str(tmp_path))
        wal.append(3, "insert_rows", {"table": "t", "rows": [(3, "v3")]})
        wal.close()
        with pytest.raises(WalCorruptionError, match="version gap"):
            recover(str(tmp_path))

    def test_out_of_order_start_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=FSYNC_NEVER)
        wal.append(2, "insert_rows", {"table": "t", "rows": []})
        wal.close()
        with pytest.raises(WalCorruptionError, match="version gap"):
            recover(str(tmp_path))

    def test_unknown_kind_rejected_at_append(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), fsync=FSYNC_NEVER)
        with pytest.raises(WalError):
            wal.append(1, "truncate_table", {})
        wal.close()

    def test_unknown_kind_on_disk_raises_at_replay(self, tmp_path):
        # A frame with valid CRCs but an unrecognized kind: written by
        # some future version, or damage that survived the checksum.
        name = "wal-" + "0" * 19 + "1.log"
        (tmp_path / name).write_bytes(_encode((1, "vacuum", None, {})))
        with pytest.raises(WalCorruptionError, match="unknown"):
            recover(str(tmp_path))


class TestCheckpointDamage:
    def test_corrupt_newest_checkpoint_raises(self, tmp_path):
        db = Database.open(str(tmp_path), fsync=FSYNC_NEVER)
        db.create_table("t", COLUMNS, [(1, "a")])
        db.checkpoint()
        db.close()
        ckpt = [
            n for n in os.listdir(tmp_path) if n.startswith("checkpoint-")
        ][0]
        path = os.path.join(tmp_path, ckpt)
        with open(path, "r+b") as handle:
            handle.seek(_HEADER.size + 4)
            byte = handle.read(1)
            handle.seek(_HEADER.size + 4)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(WalCorruptionError, match="CRC"):
            Database.open(str(tmp_path))

    def test_truncated_checkpoint_raises(self, tmp_path):
        db = Database.open(str(tmp_path), fsync=FSYNC_NEVER)
        db.create_table("t", COLUMNS, [(1, "a")])
        db.checkpoint()
        db.close()
        ckpt = [
            n for n in os.listdir(tmp_path) if n.startswith("checkpoint-")
        ][0]
        with open(os.path.join(tmp_path, ckpt), "r+b") as handle:
            handle.truncate(_HEADER.size + 4)
        with pytest.raises(WalCorruptionError):
            recover(str(tmp_path))

    def test_tmp_orphans_are_swept(self, tmp_path):
        build_store(str(tmp_path))
        orphan = tmp_path / ("checkpoint-" + "0" * 20 + ".ckpt.tmp")
        orphan.write_bytes(b"torn checkpoint bytes")
        db = Database.open(str(tmp_path))
        assert not orphan.exists()
        assert db.catalog.version == 1 + N_INSERTS
        db.close()
