"""Exhaustive single-bit-flip sweeps over a committed-transaction WAL
and a checkpoint.

Contract (DESIGN.md §15.4): *every* single flipped bit in what recovery
reads makes it refuse with the typed
:class:`~repro.errors.WalCorruptionError`. A flip only rewrites bytes,
it never shortens the file, so it is never a torn write: a flipped
length, payload checksum or header checksum fails the header CRC, and a
flipped payload byte fails the payload CRC — CRC32 catches every
single-bit error. There is no byte range where a weaker "some
acknowledged state" outcome is allowed.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.api import Database
from repro.errors import WalCorruptionError
from repro.storage import DataType
from repro.storage.wal import FSYNC_NEVER, _frames, recover

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


def build_reference(path: str, *, checkpoint: bool = False) -> None:
    """v1 create, v2..v5 committed txn (2 inserts), v6 autocommit;
    ``checkpoint`` folds all of it into one checkpoint file."""
    db = Database.open(path, fsync=FSYNC_NEVER)
    db.create_table("t", COLUMNS, [(1, "a")])
    with db.begin():
        db.catalog.insert_rows("t", [(2, "b")])
        db.catalog.insert_rows("t", [(3, "c")])
    db.catalog.insert_rows("t", [(4, "d")])
    if checkpoint:
        db.checkpoint()
    db.close()


def store_file(path: str, prefix: str) -> str:
    names = [n for n in os.listdir(path) if n.startswith(prefix)]
    assert len(names) == 1
    return os.path.join(path, names[0])


def assert_flip_refused(ref, target, prefix: str, offset: int, bit: int):
    """Copy the store, flip one bit of its ``prefix`` file, and expect
    recovery to refuse with the typed error."""
    shutil.copytree(ref, target)
    with open(store_file(str(target), prefix), "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ (1 << bit)]))
    try:
        catalog, _ = recover(str(target))
    except WalCorruptionError:
        return
    pytest.fail(
        f"flip of {prefix}* byte {offset} bit {bit} silently recovered "
        f"to v{catalog.version}"
    )


class TestBitFlipSweep:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        ref = tmp_path_factory.mktemp("bitflip") / "ref"
        build_reference(str(ref))
        return ref

    @pytest.fixture(scope="class")
    def checkpointed(self, tmp_path_factory):
        ref = tmp_path_factory.mktemp("bitflip") / "ckpt"
        build_reference(str(ref), checkpoint=True)
        return ref

    def test_every_byte_one_bit(self, reference, tmp_path):
        """Over the whole segment, two flips per byte: a cycling bit
        position, so all eight are exercised, and bit 7."""
        size = os.path.getsize(store_file(str(reference), "wal-"))
        for offset in range(size):
            for bit in sorted({(offset * 5) % 8, 7}):
                assert_flip_refused(
                    reference, tmp_path / f"b{offset}_{bit}", "wal-",
                    offset, bit,
                )

    def test_final_frame_every_bit_raises(self, reference, tmp_path):
        """All eight bit positions of every byte of the final frame, its
        length field included: a flipped length fails the header CRC
        rather than reading as a torn tail."""
        seg = store_file(str(reference), "wal-")
        final = [offset for offset, *_ in _frames(seg)][-1]
        for offset in range(final, os.path.getsize(seg)):
            for bit in range(8):
                assert_flip_refused(
                    reference, tmp_path / f"f{offset}_{bit}", "wal-",
                    offset, bit,
                )

    def test_commit_record_flip_never_surfaces_partial_txn(
        self, reference, tmp_path
    ):
        """All eight bit positions of every byte of the transaction's
        commit frame: a damaged commit refuses, rather than surfacing
        part of the transaction or quietly rolling it back."""
        seg = store_file(str(reference), "wal-")
        # Frames: 0=create, 1=begin, 2=insert, 3=insert, 4=commit, 5=tail.
        offsets = [offset for offset, *_ in _frames(seg)]
        assert len(offsets) == 6
        for offset in range(offsets[4], offsets[5]):
            for bit in range(8):
                assert_flip_refused(
                    reference, tmp_path / f"t{offset}_{bit}", "wal-",
                    offset, bit,
                )

    def test_checkpoint_every_byte_one_bit(self, checkpointed, tmp_path):
        """The newest checkpoint is the only copy of the history it
        folded in: any flip in it refuses."""
        size = os.path.getsize(store_file(str(checkpointed), "checkpoint-"))
        for offset in range(size):
            bit = (offset * 5) % 8
            assert_flip_refused(
                checkpointed, tmp_path / f"c{offset}", "checkpoint-",
                offset, bit,
            )
