"""Spill files: disk-backed row storage for memory-bounded partitioning.

DESIGN.md §9 used to admit the engine "is entirely in-memory and never
spills"; this module is the half that changes that. GApply's partition
phase (:mod:`repro.execution.gapply`) writes buffered rows into spill
files when a cell budget is in force, keeping only a bounded buffer (plus
a per-key directory) in memory.

**Row codec.** A spill file is a flat sequence of framed records::

    record   := length checksum payload
    length   := 4-byte big-endian unsigned int, len(payload)
    checksum := 4-byte big-endian unsigned int, zlib.crc32(payload)
    payload  := pickle.dumps(obj, protocol=4)

where ``obj`` is a plain row tuple (hash-partition spill) or a row tuple
in a sorted run (sort-partition spill). Pickle round-trips every value
type the engine stores (int/float/str/bytes/bool/None) exactly, which is
what makes spilled execution *byte-identical* to in-memory execution —
the acceptance bar the spill tests enforce. The 4-byte frame caps one
record at 4 GiB, far beyond any row this engine buffers. Every read-back
verifies the CRC before unpickling, so a corrupted or overwritten temp
file surfaces as a typed :class:`~repro.errors.SpillError` — never as
silently wrong rows, and never as pickle interpreting garbage.

Two access patterns, two classes:

* :class:`SpillFile` — append records, read them back either
  sequentially or by the offset returned at append time (the
  hash-partition directory keeps ``key -> [offset, ...]`` in memory and
  seeks per row on read-back);
* :class:`SpillRun` + :func:`merge_runs` — sorted runs for the external
  sort: each run is written pre-sorted and ``heapq.merge`` re-reads them
  in key order. ``heapq.merge`` is stable across inputs in argument
  order, so passing runs in creation order (and the in-memory tail last)
  reproduces Python's stable in-memory sort exactly.

:class:`RunWriter` is the one budgeted external sort built on those two:
GApply's sort partition, ORDER BY and both phases of DISTINCT feed it
items and read them back in key order; nothing else constructs a run.

Every write funnels through :func:`_write_record`, which consults the
fault-injection registry (:mod:`repro.execution.faults`) so chaos tests
can fail the Nth spill write and assert the typed
:class:`~repro.errors.SpillError` surfaces instead of a wrong answer.

Files are created where ``tempfile`` puts them and unlinked on
:meth:`close`; the operators close their spill state on every exit path,
so abandoning a query mid-stream still reclaims the disk. Every live
spill path is tracked in a process-wide registry
(:func:`live_spill_files`) so shutdown and chaos tests can assert that
no code path — error or cancellation — leaks a temp file.
"""

from __future__ import annotations

import heapq
import os
import pickle
import struct
import tempfile
import threading
import zlib
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import MemoryBudgetExceeded, SpillError

_HEADER = struct.Struct(">II")  # (payload length, crc32 of payload)
PICKLE_PROTOCOL = 4

#: Paths of spill files created but not yet closed, for leak detection.
#: Guarded by its own lock: spill files are created and closed from
#: arbitrary query threads.
_live_lock = threading.Lock()
_live_paths: set[str] = set()


def live_spill_files() -> frozenset[str]:
    """Spill temp files currently open anywhere in this process.

    The cleanup invariant the service and chaos suites assert: after a
    query ends — success, typed error, cancellation, or crash-degraded
    retry — this set is empty again.
    """
    with _live_lock:
        return frozenset(_live_paths)


def _track(path: str) -> None:
    with _live_lock:
        _live_paths.add(path)


def _untrack(path: str) -> None:
    with _live_lock:
        _live_paths.discard(path)


def _write_record(handle, obj: Any) -> int:
    """Frame and write one record; returns the encoded byte count.

    The single choke point for spill I/O: fault injection hooks in here,
    and any OS-level failure is re-raised as the typed
    :class:`SpillError` so a failing disk can never surface as a bare
    ``OSError`` from deep inside a generator.
    """
    from repro.execution.faults import check_spill_write

    check_spill_write()
    try:
        payload = pickle.dumps(obj, protocol=PICKLE_PROTOCOL)
        handle.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        handle.write(payload)
    except (OSError, pickle.PicklingError) as exc:
        raise SpillError(f"spill write failed: {exc}") from exc
    return _HEADER.size + len(payload)


def _decode_payload(payload: bytes, checksum: int, where: str) -> Any:
    if zlib.crc32(payload) != checksum:
        raise SpillError(
            f"spill record checksum mismatch {where}: the spill file was "
            "corrupted or concurrently overwritten"
        )
    return pickle.loads(payload)


def _read_record_at(handle, offset: int) -> Any:
    try:
        handle.seek(offset)
        header = handle.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise SpillError(
                f"truncated spill record header at offset {offset}"
            )
        length, checksum = _HEADER.unpack(header)
        payload = handle.read(length)
        if len(payload) != length:
            raise SpillError(
                f"truncated spill record payload at offset {offset}"
            )
        return _decode_payload(payload, checksum, f"at offset {offset}")
    except OSError as exc:
        raise SpillError(f"spill read failed: {exc}") from exc


def _iter_records(handle) -> Iterator[Any]:
    handle.seek(0)
    while True:
        header = handle.read(_HEADER.size)
        if not header:
            return
        if len(header) != _HEADER.size:
            raise SpillError("truncated spill record header")
        length, checksum = _HEADER.unpack(header)
        payload = handle.read(length)
        if len(payload) != length:
            raise SpillError("truncated spill record payload")
        yield _decode_payload(payload, checksum, "in sequential read")


def _open_spill_handle():
    try:
        fd, path = tempfile.mkstemp(prefix="repro-spill-", suffix=".run")
        handle = os.fdopen(fd, "w+b")
    except OSError as exc:
        raise SpillError(f"cannot create spill file: {exc}") from exc
    _track(path)
    return handle, path


class SpillFile:
    """An append-only record file with by-offset read-back.

    Tracks ``records`` and ``bytes_written`` so callers can feed the
    ``spill_runs``/``spilled_rows``/``spill_bytes`` counters without
    re-deriving them.
    """

    def __init__(self):
        self._handle, self.path = _open_spill_handle()
        self.records = 0
        self.bytes_written = 0
        self._closed = False

    def append(self, obj: Any) -> int:
        """Write one record; returns its offset for later :meth:`read_at`."""
        handle = self._handle
        handle.seek(0, os.SEEK_END)
        offset = handle.tell()
        self.bytes_written += _write_record(handle, obj)
        self.records += 1
        return offset

    def read_at(self, offset: int) -> Any:
        return _read_record_at(self._handle, offset)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.close()
        finally:
            _untrack(self.path)
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SpillFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC backstop only
        if not getattr(self, "_closed", True):
            self.close()


class SpillRun:
    """One sorted run of the external sort: written whole, read once."""

    def __init__(self, rows: Sequence[Any]):
        self._handle, self.path = _open_spill_handle()
        self.records = 0
        self.bytes_written = 0
        self._closed = False
        try:
            for row in rows:
                self.bytes_written += _write_record(self._handle, row)
                self.records += 1
            self._handle.flush()
        except BaseException:
            self.close()
            raise

    def __iter__(self) -> Iterator[Any]:
        return _iter_records(self._handle)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._handle.close()
        finally:
            _untrack(self.path)
            try:
                os.unlink(self.path)
            except OSError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - GC backstop only
        if not getattr(self, "_closed", True):
            self.close()


def merge_runs(
    runs: Sequence[Iterable[Any]], key: Callable[[Any], Any]
) -> Iterator[Any]:
    """Stable k-way merge of pre-sorted runs in argument order.

    With runs passed in creation order and the in-memory tail last, ties
    on ``key`` come out in arrival order — exactly the order Python's
    stable in-memory ``list.sort`` would have produced, which keeps
    spilled sort partitioning byte-identical to the in-memory path.
    """
    return heapq.merge(*runs, key=key)


class RunWriter:
    """The budgeted external sort: feed items, read them back in key order.

    :meth:`add` buffers items (each with its cell width) and, whenever
    admitting one would push the resident buffer past ``threshold``
    cells, sorts the buffer into a :class:`SpillRun` and releases its
    cells. The governor's budget is shared with other holders (the
    publisher's chunk buffer, sibling operators), so a rejected charge
    with something resident flushes and retries once; with nothing
    resident the cap is genuinely too small for one item and the typed
    :class:`~repro.errors.MemoryBudgetExceeded` propagates.
    :meth:`merged` sorts the resident tail and returns the stable merge
    (runs in creation order, tail last: arrival order on ties, exactly
    ``list.sort``). Work is counted on ``ctx.counters`` and on ``op``'s
    metrics record. Use as a context manager: leaving it releases every
    charged cell and unlinks every run, on every exit path.
    """

    def __init__(self, ctx, op, key: Callable[[Any], Any], threshold: int):
        self._counters = ctx.counters
        self._governor = ctx.governor
        self._record = (
            None if ctx.metrics is None else ctx.metrics.record_for(op)
        )
        self._key = key
        self._threshold = threshold
        self._runs: list[SpillRun] = []
        self._buffer: list[Any] = []
        self._resident = 0
        #: Most items ever resident at once (``peak_partition_rows``).
        self.peak_rows = 0

    def _sort_resident(self) -> list[Any]:
        buffer = self._buffer
        buffer.sort(key=self._key)
        self._counters.comparisons += len(buffer)
        self.peak_rows = max(self.peak_rows, len(buffer))
        return buffer

    def _flush(self) -> None:
        self._runs.append(SpillRun(self._sort_resident()))
        self._release()
        self._buffer = []

    def _release(self) -> None:
        if self._governor is not None and self._resident:
            self._governor.release_cells(self._resident)
        self._resident = 0

    def add(self, item: Any, width: int) -> None:
        self._counters.buffered_cells += width
        if self._resident and self._resident + width > self._threshold:
            self._flush()
        if self._governor is not None:
            try:
                self._governor.charge_cells(width)
            except MemoryBudgetExceeded:
                if not self._resident:
                    raise
                self._flush()
                self._governor.charge_cells(width)
        self._buffer.append(item)
        self._resident += width

    def merged(self) -> Iterable[Any]:
        """Every item fed so far, in key order; call once, after the
        last :meth:`add`."""
        runs = self._runs
        spilled_rows = sum(run.records for run in runs)
        spill_bytes = sum(run.bytes_written for run in runs)
        for counts in (self._counters, self._record):
            if counts is not None:
                counts.spill_runs += len(runs)
                counts.spilled_rows += spilled_rows
                counts.spill_bytes += spill_bytes
        tail = self._sort_resident()
        return merge_runs([*runs, tail], key=self._key) if runs else tail

    def close(self) -> None:
        self._release()
        for run in self._runs:
            run.close()

    def __enter__(self) -> "RunWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
