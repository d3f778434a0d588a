"""``python -m repro.storage.wal <dir>`` inspection CLI: frame dumps,
end-to-end chain verification, recoverable-range reporting, and exit
codes (0 = healthy, 1 = verification failed, 2 = bad invocation)."""

from __future__ import annotations

import os

import pytest

from repro.api import Database
from repro.storage import DataType
from repro.storage.wal import _HEADER, FSYNC_NEVER, _frames, main

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


def build_store(path: str, *, archive: bool = False) -> None:
    db = Database.open(path, fsync=FSYNC_NEVER, archive=archive)
    db.create_table("t", COLUMNS, [(1, "a")])
    with db.begin():
        db.catalog.insert_rows("t", [(2, "b")])
    db.checkpoint()
    db.catalog.insert_rows("t", [(3, "c")])
    db.close()


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestHealthyStore:
    def test_summary_verify_and_range(self, tmp_path, capsys):
        build_store(str(tmp_path))
        code, out = run_cli(capsys, str(tmp_path))
        assert code == 0
        assert "1 live segment(s), 0 archived, 1 checkpoint(s)" in out
        # v1 create, v2..v4 txn, v5 tail insert; one record past the
        # checkpoint.
        assert "verify: ok — state v5, 1 table(s), 1 record(s)" in out
        assert "recoverable versions: v4..v5 (recover_to=)" in out

    def test_archive_store_reports_full_range(self, tmp_path, capsys):
        build_store(str(tmp_path), archive=True)
        code, out = run_cli(capsys, str(tmp_path))
        assert code == 0
        assert "1 archived" in out
        # With the archive the whole history replays from scratch.
        assert "recoverable versions: v0..v5" in out

    def test_dump_lists_every_frame_with_txn_ids(self, tmp_path, capsys):
        build_store(str(tmp_path))
        code, out = run_cli(capsys, str(tmp_path), "--dump")
        assert code == 0
        lines = out.splitlines()
        frames = [l for l in lines if " crc=ok" in l and "@" in l]
        # The live segment only holds the post-checkpoint record; the
        # checkpoint line carries the rest of history.
        assert any("v5 insert_rows txn=- crc=ok" in l for l in frames)
        assert any(
            l.startswith("checkpoint ") and "v4 (1 table(s))" in l
            for l in lines
        )

    def test_dump_of_archived_history_shows_txn_bracket(
        self, tmp_path, capsys
    ):
        build_store(str(tmp_path), archive=True)
        code, out = run_cli(capsys, str(tmp_path), "--dump")
        assert code == 0
        assert "v2 txn_begin txn=2 crc=ok" in out
        assert "v3 insert_rows txn=2 crc=ok" in out
        assert "v4 txn_commit txn=2 crc=ok" in out

    def test_empty_directory(self, tmp_path, capsys):
        code, out = run_cli(capsys, str(tmp_path))
        assert code == 0
        assert "0 live segment(s), 0 archived, 0 checkpoint(s)" in out
        assert "verify: ok — state v0, 0 table(s), 0 record(s)" in out


class TestDamagedStore:
    def _segment(self, path: str) -> str:
        names = [n for n in os.listdir(path) if n.startswith("wal-")]
        return os.path.join(path, sorted(names)[0])

    def test_corrupt_frame_fails_verify_exit_1(self, tmp_path, capsys):
        build_store(str(tmp_path))
        seg = self._segment(str(tmp_path))
        with open(seg, "r+b") as handle:
            handle.seek(_HEADER.size + 2)
            byte = handle.read(1)
            handle.seek(_HEADER.size + 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        code, out = run_cli(capsys, str(tmp_path))
        assert code == 1
        assert "verify: FAILED — WalCorruptionError" in out

    def test_dump_marks_bad_crc_without_raising(self, tmp_path, capsys):
        build_store(str(tmp_path))
        seg = self._segment(str(tmp_path))
        with open(seg, "r+b") as handle:
            handle.seek(_HEADER.size + 2)
            byte = handle.read(1)
            handle.seek(_HEADER.size + 2)
            handle.write(bytes([byte[0] ^ 0xFF]))
        code, out = run_cli(capsys, str(tmp_path), "--dump")
        assert code == 1  # dump succeeds, verify still fails
        assert "crc=BAD" in out

    def test_dump_marks_flipped_length_as_bad_header(self, tmp_path, capsys):
        # A flipped length field in the final frame fails the header
        # CRC: the dump must mark it as damage, not as a torn payload.
        db = Database.open(str(tmp_path), fsync=FSYNC_NEVER)
        db.create_table("t", COLUMNS, [(1, "a")])
        for k in (2, 3, 4):
            db.catalog.insert_rows("t", [(k, "x")])
        db.close()
        seg = self._segment(str(tmp_path))
        final = [offset for offset, *_ in _frames(seg)][-1]
        with open(seg, "r+b") as handle:
            handle.seek(final + 1)
            byte = handle.read(1)
            handle.seek(final + 1)
            handle.write(bytes([byte[0] ^ 1]))
        code, out = run_cli(capsys, str(tmp_path), "--dump")
        assert code == 1
        assert f"@{final}: crc=BAD (header)" in out
        assert "TORN" not in out
        assert "verify: FAILED — WalCorruptionError" in out

    def test_torn_tail_is_reported_not_repaired(self, tmp_path, capsys):
        # A torn tail is recoverable (verify reports the surviving
        # prefix), but the CLI is read-only: repair=False, so the file
        # is not truncated on disk.
        build_store(str(tmp_path))
        seg = self._segment(str(tmp_path))
        size = os.path.getsize(seg)
        with open(seg, "r+b") as handle:
            handle.truncate(size - 3)
        code, out = run_cli(capsys, str(tmp_path), "--dump")
        assert code == 0
        assert "TORN" in out
        # The torn v5 insert is gone; verification stops at v4.
        assert "verify: ok — state v4" in out
        assert os.path.getsize(seg) == size - 3  # untouched

    def test_missing_directory_exit_2(self, tmp_path, capsys):
        code, out = run_cli(capsys, str(tmp_path / "nope"))
        assert code == 2
        assert "is not a directory" in out

    def test_bad_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--frobnicate"])
        assert excinfo.value.code == 2


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        build_store(str(tmp_path))
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.storage.wal", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "verify: ok" in proc.stdout
