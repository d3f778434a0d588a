"""Write-ahead logging, transactions, checkpoints, and crash recovery.

The paper's middleware assumes a durable relational store underneath it;
until this module the reproduction's :class:`~repro.storage.catalog.
Catalog` was purely in-memory, so a process crash lost every
acknowledged write. This module closes that gap with the classic WAL
discipline:

* **log before apply** — every catalog mutation appends one framed
  record to an append-only segment file *before* the in-memory state
  changes, under the catalog's ``mutation_lock``, so the durable log is
  always a prefix-complete journal of acknowledged history;
* **transactions** — ``txn_begin`` / ``txn_commit`` / ``txn_abort``
  records bracket multi-statement transactions. Recovery replays only
  operations covered by a durable ``txn_commit``: a crash mid-transaction
  physically rolls the log back to the begin record, so the recovered
  catalog is always a strict prefix of acknowledged *transactions*,
  never a half-applied one;
* **checkpoint** — :meth:`WriteAheadLog.write_checkpoint` serializes
  one full :func:`catalog_state` image into a temp file, fsyncs,
  atomically renames it into place, and then deletes — or, with
  ``archive=True``, moves into ``archive/`` — every older checkpoint and
  every segment it supersedes;
* **recover** — :func:`recover` loads the newest checkpoint,
  replays every committed record above it, physically truncates a torn
  tail or an unterminated tail transaction, and raises the typed
  :class:`~repro.errors.WalCorruptionError` on any other damage;
* **point-in-time recovery** — :func:`recover_point_in_time` rebuilds
  the catalog at *any* intermediate committed version from the archived
  segment chain plus the live log, or raises the typed
  :class:`~repro.errors.PointInTimeUnavailable` when the target predates
  the oldest archive, exceeds the newest committed version, or falls
  inside a transaction.

**Frame format.** Segments and checkpoints are sequences of frames::

    frame      := length checksum header_crc payload
    length     := 4-byte big-endian unsigned int, len(payload)
    checksum   := 4-byte big-endian unsigned int, zlib.crc32(payload)
    header_crc := 4-byte big-endian unsigned int, zlib.crc32(length checksum)
    payload    := pickle.dumps(record, protocol=4)
    record     := (version, kind, txn, data)    in a segment
                | catalog_state(...)            in a checkpoint

``txn`` is the owning transaction's id, or ``None`` outside one.
``version`` is the :attr:`Catalog.version` the record *produces* — the
monotonic counter the snapshot machinery already maintains — which is
what makes replay idempotent: a record whose version is at or below the
recovered state's version is skipped (it is already folded into the
checkpoint), and a version *gap* means acknowledged history is missing
and recovery refuses to guess. Transaction markers consume versions
like mutations do (``begin`` and ``commit``/``abort`` each take one), so
versions never rewind — a rolled-back transaction leaves the counter,
but not the data, advanced.

**Torn tail vs corruption.** The header CRC vouches for the length
before anything trusts it, so the rule is exact. A frame is *torn* when
the file ends inside its header, or when its header checks and the file
ends inside its payload; a torn final frame of the final segment is a
write interrupted by a crash, and recovery truncates it. Every other
failed check — a header or a payload that fails its CRC, or a torn frame
anywhere else — raises :class:`WalCorruptionError`: torn writes shorten
a file, they never rewrite it, so bit rot must never silently truncate
acknowledged commits. A store written before this format fails the
header check at offset 0 of its first file and is refused the same way.

**Fsync policy.** ``"always"`` fsyncs at every commit point (one fsync
per acknowledged commit; in-transaction records ride for free until the
commit record), ``"group"`` runs *group commit* — concurrent committers
elect a leader that waits up to ``group_commit_delay`` seconds for
followers and issues one fsync for the whole batch — and ``"never"``
leaves flushing to the OS. Segment files are opened unbuffered
(``buffering=0``) so every append reaches the OS immediately regardless
of policy — the policies differ only in when the *disk* is forced.
:meth:`repro.api.Database.open` is the one place it is configured.

``python -m repro.storage.wal <dir>`` inspects a store: frame dump
(version, kind, transaction id, CRC status), end-to-end chain
verification, and the recoverable version range for point-in-time
recovery.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import time
import zlib
from typing import Any, Iterator

from repro.errors import (
    PointInTimeUnavailable,
    WalCorruptionError,
    WalError,
)
from repro.storage.catalog import Catalog
from repro.storage.spill import PICKLE_PROTOCOL
from repro.storage.table import Table
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

#: Fsync policies, in decreasing order of durability.
FSYNC_ALWAYS = "always"
FSYNC_GROUP = "group"
FSYNC_NEVER = "never"
FSYNC_POLICIES = (FSYNC_ALWAYS, FSYNC_GROUP, FSYNC_NEVER)

#: Record kinds that mutate the catalog — one per mutation path.
MUTATION_KINDS = (
    "create_table",
    "drop_table",
    "insert_rows",
    "create_index",
    "add_foreign_key",
)

#: Transaction bracket markers; ``data`` is empty, ``txn`` carries the id.
TXN_KINDS = ("txn_begin", "txn_commit", "txn_abort")

RECORD_KINDS = MUTATION_KINDS + TXN_KINDS

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_CHECKPOINT_PREFIX = "checkpoint-"
_CHECKPOINT_SUFFIX = ".ckpt"
_TMP_SUFFIX = ".tmp"
ARCHIVE_DIR = "archive"

#: Default segment rotation threshold. Small enough that the rotation
#: path gets exercised by real workloads; segments are cheap.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: How long a group-commit leader waits for followers to pile on.
DEFAULT_GROUP_COMMIT_DELAY = 0.002


def _segment_name(first_version: int) -> str:
    # Zero-padded so lexicographic directory order == version order.
    return f"{_SEGMENT_PREFIX}{first_version:020d}{_SEGMENT_SUFFIX}"


def _checkpoint_name(version: int) -> str:
    return f"{_CHECKPOINT_PREFIX}{version:020d}{_CHECKPOINT_SUFFIX}"


def _checkpoint_version(name: str) -> int:
    return int(name[len(_CHECKPOINT_PREFIX):-len(_CHECKPOINT_SUFFIX)])


def _store_files(
    directory: str, archive: bool = False
) -> tuple[dict[int, str], list[str], list[str]]:
    """The one directory scan: ``(checkpoints, segments, orphans)`` —
    checkpoint paths by version, segment paths in version order (the
    names encode it) and leftover ``.tmp`` paths of the live directory,
    plus ``archive/`` on request. The live directory wins when both hold
    a checkpoint of one version (identical content either way); equal
    segment names sort archive first and replay idempotently.
    """
    checkpoints: dict[int, str] = {}
    segments: list[tuple[str, int, str]] = []
    orphans: list[str] = []
    bases = [directory]
    if archive:
        bases.insert(0, os.path.join(directory, ARCHIVE_DIR))
    for rank, base in enumerate(bases):
        if not os.path.isdir(base):
            continue
        for name in sorted(os.listdir(base)):
            path = os.path.join(base, name)
            if name.startswith(_CHECKPOINT_PREFIX) and name.endswith(
                _CHECKPOINT_SUFFIX
            ):
                checkpoints[_checkpoint_version(name)] = path
            elif name.startswith(_SEGMENT_PREFIX) and name.endswith(
                _SEGMENT_SUFFIX
            ):
                segments.append((name, rank, path))
            elif name.endswith(_TMP_SUFFIX):
                orphans.append(path)
    segments.sort()
    return checkpoints, [path for _, _, path in segments], orphans


#: A frame header: payload length, payload CRC32, then the CRC32 of the
#: first two fields (:data:`_VOUCHED`), so no length is trusted before a
#: checksum vouches for it.
_HEADER = struct.Struct(">III")
_VOUCHED = struct.Struct(">II")


def _encode(record: Any) -> bytes:
    """One frame: a segment record tuple or a checkpoint state dict."""
    payload = pickle.dumps(record, protocol=PICKLE_PROTOCOL)
    length, checksum = len(payload), zlib.crc32(payload)
    header_crc = zlib.crc32(_VOUCHED.pack(length, checksum))
    return _HEADER.pack(length, checksum, header_crc) + payload


def _fsync_dir(directory: str) -> None:
    """Make a rename/create/unlink in ``directory`` durable.

    Best-effort on platforms where directories cannot be opened for
    fsync; on POSIX this is the step that makes the checkpoint rename
    itself crash-safe."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX fallback
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# Catalog (de)serialization — plain dicts of plain values, so the
# checkpoint/replay payloads never pickle live engine objects with locks
# or handles inside.
# ---------------------------------------------------------------------------


def table_state(table: Table) -> dict:
    """A table as plain data: enough to rebuild it exactly on replay."""
    return {
        "name": table.name,
        "columns": [
            (c.name, c.dtype.value, c.qualifier, c.nullable)
            for c in table.schema
        ],
        "rows": list(table.rows),
        "primary_key": list(table.primary_key) if table.primary_key else None,
        "indexes": [list(cols) for cols in table.indexes],
    }


def build_table(state: dict) -> Table:
    schema = Schema(
        Column(name, DataType(dtype), qualifier=qualifier, nullable=nullable)
        for name, dtype, qualifier, nullable in state["columns"]
    )
    table = Table(state["name"], schema, primary_key=state["primary_key"])
    table.rows = [tuple(row) for row in state["rows"]]
    for columns in state["indexes"]:
        table.create_index(columns)
    return table


def catalog_state(catalog: Catalog) -> dict:
    """Serialize a (snapshot of a) catalog for a checkpoint payload."""
    return {
        "version": catalog.version,
        "tables": [table_state(t) for t in catalog],
        "foreign_keys": [
            (
                fk.child_table,
                list(fk.child_columns),
                fk.parent_table,
                list(fk.parent_columns),
            )
            for fk in catalog.foreign_keys()
        ],
    }


def restore_catalog(state: dict) -> Catalog:
    catalog = Catalog()
    for tstate in state["tables"]:
        catalog.register(build_table(tstate))
    for child, child_cols, parent, parent_cols in state["foreign_keys"]:
        catalog.add_foreign_key(child, child_cols, parent, parent_cols)
    # The mutations above bumped the fresh catalog's version; pin it back
    # to the checkpointed value so replay lines up record by record.
    catalog._version = state["version"]
    return catalog


def _apply_record(
    catalog: Catalog, kind: str, data: dict, version: int
) -> None:
    """Replay one WAL mutation record against ``catalog`` (no WAL
    attached); it must leave the catalog at the record's ``version``."""
    if kind == "create_table":
        catalog.register(build_table(data["table"]), replace=data["replace"])
    elif kind == "drop_table":
        catalog.drop(data["name"])
    elif kind == "insert_rows":
        catalog.insert_rows(
            data["table"], [tuple(row) for row in data["rows"]]
        )
    elif kind == "create_index":
        catalog.create_index(data["table"], data["columns"])
    elif kind == "add_foreign_key":
        catalog.add_foreign_key(
            data["child_table"],
            data["child_columns"],
            data["parent_table"],
            data["parent_columns"],
        )
    else:
        raise WalCorruptionError(f"unknown WAL record kind {kind!r}")
    if catalog.version != version:
        raise WalCorruptionError(
            f"replaying {kind!r} @v{version} left the catalog at "
            f"v{catalog.version}"
        )


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------


class _GroupCommitter:
    """Leader/follower fsync batching for the ``group`` policy.

    Committers arrive after their record is written (and after the
    catalog mutation lock is released, so writers keep streaming frames
    while a batch forms). The first arrival becomes leader, waits up to
    ``max_delay`` seconds when other commits are in flight, then issues
    one fsync that covers every frame written so far; followers just
    wait for the durable floor to pass their own frame. A failed group
    fsync poisons the log and truncates the unsynced suffix — memory may
    be ahead of disk at that point, so no further appends are accepted
    and every waiter gets the typed :class:`WalError` (its commit was
    never acknowledged).
    """

    def __init__(self, wal: "WriteAheadLog", max_delay: float):
        self.wal = wal
        self.max_delay = max_delay
        self._cond = threading.Condition()
        self._leader_active = False
        self._in_flight = 0

    def sync(self, token: int) -> None:
        wal = self.wal
        with self._cond:
            self._in_flight += 1
        try:
            while True:
                with self._cond:
                    if wal._synced_seq >= token:
                        wal.group_commits += 1
                        return
                    if wal._poisoned is not None:
                        raise WalError(
                            f"write-ahead log is poisoned: {wal._poisoned}"
                        )
                    if not self._leader_active:
                        self._leader_active = True
                        break
                    self._cond.wait()
            self._lead(token)
        finally:
            with self._cond:
                self._in_flight -= 1

    def _lead(self, token: int) -> None:
        """Run one batch as leader; always clears the leader flag."""
        wal = self.wal
        try:
            with self._cond:
                others = self._in_flight - 1
            if others > 0 and self.max_delay > 0:
                # Followers are piling on: give stragglers a beat to get
                # their frames written before paying for the fsync.
                time.sleep(self.max_delay)
            failure: OSError | None = None
            with wal._io_lock:
                target_seq = wal._write_seq
                target_size = wal._segment_size
                try:
                    wal._do_fsync()
                    wal._synced_seq = target_seq
                    wal._synced_size = target_size
                    wal._unsynced_appends = 0
                    wal.group_batches += 1
                except OSError as exc:
                    failure = exc
                    wal._poison_unsynced(f"group commit fsync failed: {exc}")
        finally:
            with self._cond:
                self._leader_active = False
                self._cond.notify_all()
        if failure is not None:
            raise WalError(
                f"group commit fsync failed: {failure}"
            ) from failure
        # The batch is durable. This is the crash point the concurrency
        # battery arms: everything fsynced above must survive even if the
        # process dies before a single waiter is acknowledged.
        from repro.execution.faults import check_group_fsync

        check_group_fsync()
        with self._cond:
            # Same lock the followers count under: a leader and a
            # follower finishing together must not lose an update.
            wal.group_commits += 1


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------


class WriteAheadLog:
    """Append-only segmented WAL plus checkpoint files in one directory.

    Appends happen under the owning catalog's ``mutation_lock`` (the
    catalog appends from its mutation paths, and
    :meth:`write_checkpoint` is invoked with the lock held so the
    snapshot and the truncation point agree). Group-commit waiters run
    *outside* that lock; the internal ``_io_lock`` fences their fsync
    against segment rotation.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = FSYNC_ALWAYS,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        group_commit_delay: float = DEFAULT_GROUP_COMMIT_DELAY,
        archive: bool = False,
    ):
        if fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {fsync!r}; "
                f"expected one of {FSYNC_POLICIES}"
            )
        if segment_bytes < 1:
            raise WalError(f"segment_bytes must be >= 1, got {segment_bytes}")
        if group_commit_delay < 0:
            raise WalError(
                f"group_commit_delay must be >= 0, got {group_commit_delay}"
            )
        self.directory = directory
        self.fsync_policy = fsync
        self.segment_bytes = segment_bytes
        self.archive = archive
        self._handle = None
        self._segment_path: str | None = None
        self._segment_size = 0
        self._synced_size = 0
        self._unsynced_appends = 0
        self._write_seq = 0
        self._synced_seq = 0
        self._closed = False
        self._poisoned: str | None = None
        self._io_lock = threading.RLock()
        self._group = (
            _GroupCommitter(self, group_commit_delay)
            if fsync == FSYNC_GROUP
            else None
        )
        # Observability counters, surfaced through Service.stats().
        self.wal_appends = 0
        self.wal_bytes = 0
        self.fsyncs = 0
        self.checkpoints = 0
        #: Set by ``Database.open``, which recovers before it attaches.
        self.recoveries = 0
        self.replayed_records = 0
        self.group_commits = 0
        self.group_batches = 0
        os.makedirs(directory, exist_ok=True)

    # -- low-level file plumbing ---------------------------------------

    def _open_segment(self, path: str) -> None:
        # buffering=0: every write() goes straight to the OS, so a
        # simulated crash (which abandons the handle without flushing)
        # leaves exactly the bytes written so far — like a real one.
        self._handle = open(path, "ab", buffering=0)
        self._segment_path = path
        self._segment_size = os.path.getsize(path)
        # Pre-existing bytes were made durable by whoever wrote them (or
        # will be judged by recovery); treat them as the synced floor.
        self._synced_size = self._segment_size
        self._unsynced_appends = 0

    def _ensure_segment(self, next_version: int) -> None:
        if self._handle is None:
            _, segments, _ = _store_files(self.directory)
            if segments:
                self._open_segment(segments[-1])
            else:
                self._rotate(next_version)

    def _rotate(self, first_version: int) -> None:
        """Start a fresh segment that will hold ``first_version`` onward."""
        with self._io_lock:
            if self._handle is not None:
                if self.fsync_policy != FSYNC_NEVER:
                    self._sync_handle()
                self._handle.close()
            path = os.path.join(self.directory, _segment_name(first_version))
            self._open_segment(path)

    def _sync_handle(self) -> None:
        if self._handle is None or self._unsynced_appends == 0:
            return
        self._do_fsync()
        self._unsynced_appends = 0
        self._synced_seq = self._write_seq
        self._synced_size = self._segment_size

    def _do_fsync(self) -> None:
        from repro.execution.faults import check_wal_fsync

        check_wal_fsync()
        os.fsync(self._handle.fileno())
        self.fsyncs += 1

    # -- poisoning -------------------------------------------------------

    def _check_writable(self) -> None:
        if self._closed:
            raise WalError("write-ahead log is closed")
        if self._poisoned is not None:
            raise WalError(
                f"write-ahead log is poisoned: {self._poisoned}"
            )

    def poison(self, reason: str) -> None:
        """Refuse every future append/checkpoint with a typed error.

        Used when the in-memory catalog can no longer be guaranteed to
        match the durable log — a transaction terminator that failed to
        become durable, or a failed group fsync after the mutation
        already applied. Recovery of the on-disk state is unaffected:
        the log is a (possibly shorter) clean prefix.
        """
        if self._poisoned is None:
            self._poisoned = reason

    def _poison_unsynced(self, reason: str) -> None:
        """Poison and chop the unsynced suffix so disk == acked state."""
        self.poison(reason)
        if self._handle is not None:
            try:
                os.ftruncate(self._handle.fileno(), self._synced_size)
                self._segment_size = self._synced_size
            except OSError:  # pragma: no cover - disk truly gone
                pass

    # -- the append path -----------------------------------------------

    def append(
        self,
        version: int,
        kind: str,
        data: dict,
        *,
        txn: int | None = None,
        commit_point: bool = True,
    ) -> int | None:
        """Durably journal one record *before* it applies in memory.

        ``txn`` tags in-transaction records with their transaction id;
        ``commit_point`` marks records whose durability acknowledges a
        commit (autocommit mutations, ``txn_commit``/``txn_abort``) —
        under the ``always`` policy only commit points fsync, and under
        ``group`` they return a token for :meth:`wait_durable`.

        On any failure — injected or real — the partially written frame
        is truncated away before the error propagates, so the log never
        retains a record whose mutation was not acknowledged. Raises
        :class:`WalError` (typed) for I/O and fsync failures.
        """
        from repro.execution.faults import check_wal_append

        self._check_writable()
        if kind not in RECORD_KINDS:
            raise WalError(f"unknown WAL record kind {kind!r}")
        try:
            self._ensure_segment(version)
            if self._segment_size >= self.segment_bytes:
                self._rotate(version)
        except OSError as exc:
            # Rotation fsync/open failure: no frame was written yet, so
            # the append simply never happened.
            raise WalError(f"WAL segment rotation failed: {exc}") from exc
        frame = _encode((version, kind, txn, data))
        short_write = check_wal_append()  # may raise SimulatedCrash
        offset = self._segment_size
        if short_write is not None:
            # Injected torn write: the prefix really reaches the file,
            # then the "process" dies mid-write.
            from repro.execution.faults import SimulatedCrash

            self._handle.write(frame[: min(short_write, len(frame) - 1)])
            raise SimulatedCrash(
                f"injected short write at WAL offset {offset}"
            )
        try:
            self._handle.write(frame)
            self._segment_size += len(frame)
            self._write_seq += 1
            self._unsynced_appends += 1
            if self.fsync_policy == FSYNC_ALWAYS and commit_point:
                self._sync_handle()
        except OSError as exc:
            # Roll the frame back so the unacknowledged record is not
            # durable: recovered state must equal the acked prefix.
            try:
                os.ftruncate(self._handle.fileno(), offset)
                self._segment_size = offset
                self._write_seq = max(0, self._write_seq - 1)
                self._unsynced_appends = max(0, self._unsynced_appends - 1)
            except OSError:  # pragma: no cover - disk truly gone
                pass
            raise WalError(f"WAL append failed: {exc}") from exc
        self.wal_appends += 1
        self.wal_bytes += len(frame)
        if self._group is not None and commit_point:
            return self._write_seq
        return None

    def wait_durable(self, token: int | None) -> None:
        """Block until the append identified by ``token`` is fsynced.

        A no-op for ``None`` tokens and for every policy except
        ``group`` (the other policies resolve durability inside
        :meth:`append` itself). Called *after* the catalog mutation lock
        is released so concurrent committers batch into one fsync.
        Raises :class:`WalError` if the group fsync failed — the commit
        was not acknowledged and the log is poisoned.
        """
        if token is None or self._group is None:
            return
        self._group.sync(token)

    # -- checkpoints -----------------------------------------------------

    def write_checkpoint(self, state: dict) -> str:
        """Write ``state`` (a :func:`catalog_state` dict) durably as one
        full image: a file holding one frame whose payload is ``state``.

        Temp-file + fsync + atomic rename + directory fsync, then delete
        (or archive) every segment whose records the checkpoint folds in
        and every older checkpoint. Crash-safe at every step: an
        interrupted temp write leaves only a ``.tmp`` orphan (removed by
        recovery), a crash before the rename leaves the previous
        checkpoint authoritative, and a crash before the segment deletion
        leaves stale segments that replay idempotently.
        """
        from repro.execution.faults import check_checkpoint

        self._check_writable()
        version = state["version"]
        final_path = os.path.join(self.directory, _checkpoint_name(version))
        tmp_path = final_path + _TMP_SUFFIX
        frame = _encode(state)
        try:
            with open(tmp_path, "wb", buffering=0) as handle:
                handle.write(frame[: len(frame) // 2])
                check_checkpoint("temp")  # crash leaves a torn .tmp
                handle.write(frame[len(frame) // 2:])
                os.fsync(handle.fileno())
                self.fsyncs += 1
            check_checkpoint("rename")
            os.replace(tmp_path, final_path)
            _fsync_dir(self.directory)
        except OSError as exc:
            raise WalError(f"checkpoint write failed: {exc}") from exc
        self.checkpoints += 1
        # Everything at or below `version` is now in the checkpoint:
        # rotate so new appends land in a fresh segment, then retire the
        # superseded segments and every older checkpoint. The checkpoint
        # itself is already durable; a failure in this cleanup only
        # leaves stale files that replay idempotently.
        try:
            self._rotate(version + 1)
            check_checkpoint("truncate")
            checkpoints, segments, _ = _store_files(self.directory)
            for path in segments:
                if path != self._segment_path:
                    self._retire(path)
            for older, path in checkpoints.items():
                if older < version:
                    self._retire(path)
            _fsync_dir(self.directory)
        except OSError as exc:
            raise WalError(
                f"checkpoint log truncation failed: {exc}"
            ) from exc
        return final_path

    def _retire(self, path: str) -> None:
        """Remove a superseded file — or move it to the archive."""
        if self.archive:
            archive_dir = os.path.join(self.directory, ARCHIVE_DIR)
            os.makedirs(archive_dir, exist_ok=True)
            os.replace(
                path, os.path.join(archive_dir, os.path.basename(path))
            )
        else:
            os.unlink(path)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync (unless policy is ``never``) and close handles."""
        if self._closed:
            return
        self._closed = True
        with self._io_lock:
            if self.fsync_policy != FSYNC_NEVER:
                try:
                    self._sync_handle()
                except OSError:  # pragma: no cover - best effort
                    pass
            self.abandon()

    def abandon(self) -> None:
        """Close the file handle without any flushing or fsync.

        The simulated-crash path: after a :class:`~repro.execution.
        faults.SimulatedCrash` the harness abandons the store; because
        segments are unbuffered, closing writes nothing, so the on-disk
        bytes are exactly what the 'crashed process' managed to write.
        """
        self._closed = True
        with self._io_lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None

    def stats(self) -> dict[str, int]:
        return {
            "wal_appends": self.wal_appends,
            "wal_bytes": self.wal_bytes,
            "fsyncs": self.fsyncs,
            "checkpoints": self.checkpoints,
            "recoveries": self.recoveries,
            "replayed_records": self.replayed_records,
            "group_commits": self.group_commits,
            "group_batches": self.group_batches,
        }


# ---------------------------------------------------------------------------
# Frame reading and the torn-tail / corruption classification
# ---------------------------------------------------------------------------


#: Verdicts of :func:`_frames`. Everything but ``_OK`` ends the walk.
_OK = "ok"
_BAD_HEADER = "bad-header"  # the header fails its CRC: its length is unknown
_BAD_CRC = "bad-crc"  # the header checks, the payload fails its CRC
_TORN = "torn"  # the file ends inside the header, or inside a vouched payload


def _frames(path: str) -> Iterator[tuple[int, str, int | None, memoryview]]:
    """The one frame walker: classify each frame of a segment or
    checkpoint file as ``(offset, verdict, length, body)``.

    ``length`` is the payload length once the header CRC vouched for it
    (``None`` for a torn or failed header) and ``body`` the payload
    bytes present.
    """
    with open(path, "rb") as handle:
        data = memoryview(handle.read())  # bodies are views, not copies
    size = len(data)
    offset = 0
    while offset < size:
        start = offset + _HEADER.size
        if start > size:
            yield offset, _TORN, None, data[offset:]
            return
        length, checksum, header_crc = _HEADER.unpack_from(data, offset)
        if zlib.crc32(data[offset:offset + _VOUCHED.size]) != header_crc:
            yield offset, _BAD_HEADER, None, data[start:start]
            return
        end = start + length
        body = data[start:end]
        if end > size:
            yield offset, _TORN, length, body
            return
        if zlib.crc32(body) != checksum:
            yield offset, _BAD_CRC, length, body
            return
        yield offset, _OK, length, body
        offset = end


def _damage(path: str, offset: int, verdict: str) -> WalCorruptionError:
    """The typed refusal for a frame that is not ``_OK`` and not a torn
    tail recovery may truncate."""
    where = f"{path}:{offset}"
    if verdict == _BAD_HEADER:
        why = (
            "the file is damaged or predates this format"
            if offset == 0
            else "bit rot, not a torn write"
        )
        return WalCorruptionError(
            f"frame header fails its CRC at {where}: {why}"
        )
    if verdict == _BAD_CRC:
        return WalCorruptionError(
            f"payload fails its CRC at {where} on a complete frame — bit "
            "rot, not a torn write; refusing to drop acknowledged history"
        )
    return WalCorruptionError(
        f"truncated frame at {where} — only the final frame of the newest "
        "segment may be torn; this is damage, not a torn write"
    )


def _read_segment(
    path: str, is_last: bool, repair: bool = True
) -> Iterator[tuple[int, int, str, int | None, dict]]:
    """Yield ``(offset, version, kind, txn, data)`` for every frame of a
    segment.

    A torn final frame of the *final* segment is physically truncated
    back to the last good frame when ``repair`` is true (read-only
    callers pass ``repair=False`` and the iterator just stops); every
    other bad frame raises :class:`WalCorruptionError` (DESIGN.md §15.4).
    """
    for offset, verdict, _, body in _frames(path):
        if verdict == _OK:
            try:
                version, kind, txn, data = pickle.loads(body)
            except Exception as exc:
                raise WalCorruptionError(
                    f"undecodable WAL record at {path}:{offset}: {exc}"
                ) from exc
            yield offset, version, kind, txn, data
        elif verdict != _TORN or not is_last:
            raise _damage(path, offset, verdict)
        elif repair:
            # Torn tail: physically truncate back to the last good frame
            # so the next writer appends after clean history.
            with open(path, "r+b") as trunc:
                trunc.truncate(offset)


def _load_checkpoint(path: str) -> dict:
    """The state a checkpoint file holds; any damage raises, a torn
    checkpoint included — the history it folded in is gone."""
    offset, verdict, _, body = next(_frames(path), (0, _TORN, None, b""))
    if verdict != _OK:
        raise _damage(path, offset, verdict)
    return pickle.loads(body)


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------


class _TxnBuffer:
    """Operations of one in-flight transaction during replay."""

    __slots__ = ("txn_id", "begin_version", "segment_index", "offset", "ops")

    def __init__(
        self, txn_id: int, begin_version: int, segment_index: int, offset: int
    ):
        self.txn_id = txn_id
        self.begin_version = begin_version
        self.segment_index = segment_index
        self.offset = offset
        self.ops: list[tuple[str, dict, int]] = []


def _replay(
    catalog: Catalog,
    segment_paths: list[str],
    repair: bool,
    stop_at: int | None = None,
) -> tuple[int, _TxnBuffer | None, list[int]]:
    """Replay committed history from ``segment_paths`` onto ``catalog``.

    Transactional records are buffered until their durable terminator:
    ``txn_commit`` applies the buffer (and the begin/commit version
    bumps), ``txn_abort`` discards it but keeps the version bumps —
    versions never rewind. With ``stop_at``, records beyond that
    version are tracked (for boundary reporting) but not applied.

    Returns ``(replayed, pending, boundaries)``: the count of applied
    mutation records, the unterminated tail transaction (if any), and
    every committed-state boundary version observed (including those
    beyond ``stop_at``).
    """
    replayed = 0
    seen = catalog.version
    boundaries: list[int] = [catalog.version]
    pending: _TxnBuffer | None = None
    # Once `stop_at` is reached we stop mutating the catalog but keep
    # scanning versions so refusals can name the reachable range.
    for index, path in enumerate(segment_paths):
        is_last = index == len(segment_paths) - 1
        for offset, version, kind, txn, data in _read_segment(
            path, is_last, repair=repair
        ):
            if version <= seen:
                continue  # stale duplicate — already folded in
            if version != seen + 1:
                raise WalCorruptionError(
                    f"WAL version gap in {os.path.basename(path)}: expected "
                    f"{seen + 1}, found {version} — acknowledged history "
                    "is missing"
                )
            seen = version
            applying = stop_at is None or version <= stop_at
            if kind == "txn_begin":
                if pending is not None:
                    raise WalCorruptionError(
                        f"transaction {txn} begins at v{version} while "
                        f"transaction {pending.txn_id} is still open — "
                        "interleaved transactions are impossible"
                    )
                pending = _TxnBuffer(txn, version, index, offset)
            elif kind in ("txn_commit", "txn_abort"):
                if pending is None or txn != pending.txn_id:
                    raise WalCorruptionError(
                        f"{kind[4:]} record for transaction {txn} at "
                        f"v{version} without a matching begin"
                    )
                if applying:
                    if kind == "txn_commit":
                        catalog._version = pending.begin_version
                        for op in pending.ops:
                            _apply_record(catalog, *op)
                        replayed += len(pending.ops)
                    # The terminator's own bump — all a rollback leaves:
                    # it consumed versions but no data.
                    catalog._version = version
                boundaries.append(version)
                pending = None
            else:
                if txn is not None:
                    if pending is None or txn != pending.txn_id:
                        raise WalCorruptionError(
                            f"record for transaction {txn} at v{version} "
                            "outside its begin/terminator bracket"
                        )
                    pending.ops.append((kind, data, version))
                else:
                    if pending is not None:
                        raise WalCorruptionError(
                            f"autocommit record at v{version} inside open "
                            f"transaction {pending.txn_id}"
                        )
                    if applying:
                        _apply_record(catalog, kind, data, version)
                        replayed += 1
                    boundaries.append(version)
    return replayed, pending, boundaries


def _rollback_tail_txn(
    segment_paths: list[str], pending: _TxnBuffer
) -> None:
    """Physically erase an unterminated tail transaction from the log.

    Deletes every segment after the one holding the begin record, then
    truncates that segment back to the begin offset — the durable log
    ends at the last committed state, exactly what recovery returned.
    """
    for path in segment_paths[pending.segment_index + 1:]:
        os.unlink(path)
    with open(segment_paths[pending.segment_index], "r+b") as handle:
        handle.truncate(pending.offset)
    _fsync_dir(os.path.dirname(segment_paths[pending.segment_index]))


def recover(directory: str, repair: bool = True) -> tuple[Catalog, int]:
    """Rebuild the catalog from ``directory``; returns (catalog, replayed).

    Protocol: remove temp-file orphans, load the newest checkpoint (its
    CRC must pass — a corrupt newest checkpoint is unrecoverable
    because the segments it superseded are gone), then replay every
    committed segment record with ``version > checkpoint.version`` in
    order. Duplicates (stale segments surviving a crash before
    checkpoint truncation) replay idempotently; a version gap raises
    :class:`WalCorruptionError`; a torn tail on the newest segment is
    physically truncated, and so is an unterminated tail transaction —
    the catalog rolls back to the last committed state. ``repair=False``
    (the inspection CLI) performs both analyses without touching disk.
    """
    os.makedirs(directory, exist_ok=True)
    checkpoints, segment_paths, orphans = _store_files(directory)
    if repair:
        for path in orphans:
            os.unlink(path)
    catalog = Catalog()
    if checkpoints:
        catalog = restore_catalog(
            _load_checkpoint(checkpoints[max(checkpoints)])
        )
    replayed, pending, _ = _replay(catalog, segment_paths, repair=repair)
    if pending is not None and repair:
        _rollback_tail_txn(segment_paths, pending)
    return catalog, replayed


# ---------------------------------------------------------------------------
# Point-in-time recovery over the archived chain
# ---------------------------------------------------------------------------


def recover_point_in_time(directory: str, version: int) -> Catalog:
    """The catalog exactly as of committed version ``version``.

    Reconstructs from the newest checkpoint at or below the target
    (searching the archive as well as the live directory) plus the
    archived and live segments, replaying committed transactions up to
    exactly ``version``. Never modifies the store. Raises
    :class:`PointInTimeUnavailable` when the target is not a reachable
    committed-state boundary — before the oldest archived history,
    beyond the newest committed version, or inside a transaction.
    """
    if version < 0:
        raise PointInTimeUnavailable(
            f"recover_to={version}: versions are non-negative"
        )
    checkpoints, segment_paths, _ = _store_files(directory, archive=True)
    basis_version = max((v for v in checkpoints if v <= version), default=0)
    catalog = Catalog()
    if basis_version in checkpoints:
        catalog = restore_catalog(_load_checkpoint(checkpoints[basis_version]))
    try:
        _, _, boundaries = _replay(
            catalog, segment_paths, repair=False, stop_at=version
        )
    except WalCorruptionError as exc:
        if catalog.version == version:  # pragma: no cover - damage beyond
            return catalog
        raise PointInTimeUnavailable(
            f"recover_to={version}: history between v{basis_version} and "
            f"the target is unreadable ({exc})"
        ) from exc
    if catalog.version == version:
        return catalog
    reachable = sorted(set(boundaries))  # never empty: the basis is one
    if version > reachable[-1]:
        raise PointInTimeUnavailable(
            f"recover_to={version} is beyond the newest committed version "
            f"v{reachable[-1]}"
        )
    if version < reachable[0]:
        raise PointInTimeUnavailable(
            f"recover_to={version} predates the oldest recoverable history "
            f"(v{reachable[0]}); enable archive=True to retain superseded "
            "segments for point-in-time recovery"
        )
    below = max(b for b in reachable if b < version)
    above = min(b for b in reachable if b > version)
    raise PointInTimeUnavailable(
        f"recover_to={version} is not a committed-state boundary (it falls "
        f"inside a transaction); nearest committed versions are v{below} "
        f"and v{above}"
    )


def recoverable_range(directory: str) -> tuple[int, int]:
    """The ``(oldest, newest)`` committed versions PITR can reproduce.

    ``oldest`` is 0 when the full record history survives (archive mode,
    or no checkpoint has truncated the log yet), otherwise the oldest
    checkpoint version still on disk. Raises :class:`WalCorruptionError`
    on unreadable history.
    """
    checkpoints, segment_paths, _ = _store_files(directory, archive=True)
    try:
        # Full-history replay from the empty catalog: succeeds exactly
        # when no checkpoint ever discarded segments (or they were all
        # archived), in which case every version from 0 is reachable.
        _, _, boundaries = _replay(Catalog(), segment_paths, repair=False)
        return 0, max(boundaries)
    except WalCorruptionError:
        if not checkpoints:
            raise
    catalog = restore_catalog(_load_checkpoint(checkpoints[max(checkpoints)]))
    _, _, boundaries = _replay(catalog, segment_paths, repair=False)
    return min(checkpoints), max(boundaries)


# ---------------------------------------------------------------------------
# Inspection CLI: python -m repro.storage.wal <dir>
# ---------------------------------------------------------------------------


def _dump_segment(path: str, label: str) -> None:
    """Print one line per frame, tolerating damage (marked, not raised)."""
    for offset, verdict, length, body in _frames(path):
        if verdict == _BAD_HEADER:
            status = "crc=BAD (header)"
        elif verdict == _BAD_CRC:
            status = f"crc=BAD (complete frame, {length} bytes)"
        elif length is None:
            status = f"TORN (truncated header, {len(body)} bytes)"
        elif verdict == _TORN:
            status = f"TORN (payload {len(body)}/{length} bytes)"
        else:
            try:
                version, kind, txn, _ = pickle.loads(body)
            except Exception:
                print(f"  {label} @{offset}: crc=ok but payload undecodable")
                return
            status = (
                f"v{version} {kind} "
                f"txn={txn if txn is not None else '-'} crc=ok"
            )
        print(f"  {label} @{offset}: {status}")


def main(argv: list[str] | None = None) -> int:
    """Inspect a WAL directory: frames, chain verification, PITR range."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.storage.wal",
        description=(
            "Inspect a write-ahead-log directory: dump frames, verify the "
            "segment/checkpoint chain end-to-end, and report the "
            "recoverable version range for point-in-time recovery."
        ),
    )
    parser.add_argument("directory", help="the WAL directory to inspect")
    parser.add_argument(
        "--dump",
        action="store_true",
        help="print every frame (version, kind, txn id, CRC status)",
    )
    args = parser.parse_args(argv)
    directory = args.directory
    if not os.path.isdir(directory):
        print(f"error: {directory} is not a directory")
        return 2
    checkpoints, segment_paths, _ = _store_files(directory, archive=True)
    live_segments = len(_store_files(directory)[1])
    archived = len(segment_paths) - live_segments
    print(
        f"{directory}: {live_segments} live segment(s), "
        f"{archived} archived, {len(checkpoints)} checkpoint(s)"
    )
    if args.dump:
        for path in segment_paths:
            rel = os.path.relpath(path, directory)
            print(f"segment {rel}:")
            _dump_segment(path, rel)
        for version in sorted(checkpoints):
            rel = os.path.relpath(checkpoints[version], directory)
            try:
                state = _load_checkpoint(checkpoints[version])
            except WalCorruptionError as exc:
                print(f"checkpoint {rel}: UNREADABLE ({exc})")
                continue
            print(
                f"checkpoint {rel}: v{version} "
                f"({len(state['tables'])} table(s))"
            )
    try:
        catalog, replayed = recover(directory, repair=False)
    except WalError as exc:
        print(f"verify: FAILED — {type(exc).__name__}: {exc}")
        return 1
    print(
        f"verify: ok — state v{catalog.version}, "
        f"{len(catalog.table_names())} table(s), "
        f"{replayed} record(s) beyond the newest checkpoint"
    )
    try:
        oldest, newest = recoverable_range(directory)
    except WalError as exc:
        print(f"recoverable range: unavailable ({exc})")
        return 1
    print(f"recoverable versions: v{oldest}..v{newest} (recover_to=)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
