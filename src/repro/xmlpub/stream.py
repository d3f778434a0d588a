"""Constant-memory streaming XML publishing.

The tagger (:mod:`repro.xmlpub.tagger`) is already an O(depth) consumer of
clustered rows — but every caller so far materialized the query result
first, so the serve layer could not ship documents larger than memory.
This module closes that gap: it couples the tagger to a *lazy* row source
(:meth:`Database.publish <repro.api.Database.publish>` hands it the
governed root row loop over the Volcano iterators or the vector
engine's batch stream, undrained) and re-chunks the tagger's small text
fragments into bounded byte buffers, so the whole pipeline holds:

* the executor's working state (one group at a time for GApply, whose
  partition phase spills to disk under a memory budget);
* at most ``chunk_bytes`` (+ one text fragment) of pending XML;

and nothing proportional to the document.

Governor integration (:mod:`repro.execution.governor`): the pending
buffer is charged against the query's **memory budget** at
:data:`STREAM_CELL_BYTES` bytes per cell and released at every flush, so
a misconfigured ``chunk_bytes`` larger than the budget fails with the
same typed :class:`~repro.errors.MemoryBudgetExceeded` any buffering
operator raises; every flushed chunk runs a wall-clock/cancel check via
:meth:`~repro.execution.governor.Governor.charge_emitted`, so a
cancelled publish stops within one chunk even if the row stride has not
tripped. Emitted bytes themselves are *not* held against the memory
budget — they have left the system.

:class:`XmlChunkStream` is the client-facing handle: an
``Iterator[bytes]`` with deterministic lifecycle (``close()`` is
idempotent, tears down the row source, and fires close hooks exactly
once), which is what lets :meth:`Service.submit_publish
<repro.serve.Service.submit_publish>` hold an admission slot for exactly
the life of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from repro.errors import ReproError, XmlPublishError
from repro.execution.governor import Governor
from repro.storage.table import Row
from repro.xmlpub.tagger import ConstantSpaceTagger, TaggerSpec

#: Default flush threshold: accumulate roughly this many bytes of XML
#: text before emitting a chunk. Small enough that a slow consumer sees
#: steady progress, large enough that per-chunk overhead disappears.
DEFAULT_CHUNK_BYTES = 64 * 1024

#: Governor cell granularity for buffered XML text: one memory-budget
#: cell per this many pending bytes. Cells are the unit of
#: ``Counters.buffered_cells`` (roughly one row-value slot), so 64 bytes
#: of text per cell keeps XML buffering commensurate with row buffering.
STREAM_CELL_BYTES = 64


@dataclass
class PublishStats:
    """Per-stream accounting, readable while the stream is live."""

    rows_in: int = 0
    chunks: int = 0            # chunks emitted (== buffer flushes)
    bytes_emitted: int = 0
    peak_buffer_bytes: int = 0  # high-water mark of pending (unflushed) text

    def snapshot(self) -> dict[str, int]:
        return {
            "rows_in": self.rows_in,
            "chunks": self.chunks,
            "bytes_emitted": self.bytes_emitted,
            "peak_buffer_bytes": self.peak_buffer_bytes,
        }


def stream_document(
    rows: Iterable[Row],
    spec: TaggerSpec,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    encoding: str = "utf-8",
    governor: Governor | None = None,
    stats: PublishStats | None = None,
) -> Iterator[bytes]:
    """Yield one XML document as encoded chunks with bounded buffering.

    ``rows`` may be any iterable of clustered tagger-layout rows — in
    production :meth:`Database.publish`'s lazy row loop; in tests
    a plain list. The concatenation of the yielded chunks is
    byte-identical to ``ConstantSpaceTagger(spec).tag_to_string(rows)``
    encoded, for every ``chunk_bytes`` — chunking never moves document
    bytes, only their framing.

    Cleanup is guaranteed: on ``close()`` (GeneratorExit), an error, or
    exhaustion, the row source is closed (releasing generator-held
    resources such as spill files) and any governor cells charged for
    the pending buffer are released.
    """
    if chunk_bytes < 1:
        raise XmlPublishError(
            f"chunk_bytes must be >= 1, got {chunk_bytes}"
        )
    tagger = ConstantSpaceTagger(spec)
    row_iter = iter(rows)
    counted = row_iter if stats is None else _counted(row_iter, stats)
    pieces: list[str] = []
    pending = 0        # approximate pending size (str length)
    charged_cells = 0  # governor cells currently held for the buffer

    def flush() -> bytes:
        nonlocal pending, charged_cells
        chunk = "".join(pieces).encode(encoding)
        pieces.clear()
        pending = 0
        if governor is not None:
            if charged_cells:
                governor.release_cells(charged_cells)
                charged_cells = 0
            governor.charge_emitted(len(chunk))
        if stats is not None:
            stats.chunks += 1
            stats.bytes_emitted += len(chunk)
        return chunk

    try:
        for piece in tagger.tag(counted):
            pieces.append(piece)
            pending += len(piece)
            if stats is not None and pending > stats.peak_buffer_bytes:
                stats.peak_buffer_bytes = pending
            if governor is not None:
                want = -(-pending // STREAM_CELL_BYTES)  # ceil division
                if want > charged_cells:
                    # Charge before bumping the tally: a rejected charge
                    # is rolled back by the governor, so the finally
                    # below must not release cells we never held.
                    governor.charge_cells(want - charged_cells)
                    charged_cells = want
            if pending >= chunk_bytes:
                yield flush()
        if pieces:
            yield flush()
    finally:
        if governor is not None and charged_cells:
            governor.release_cells(charged_cells)
            charged_cells = 0
        close = getattr(row_iter, "close", None)
        if close is not None:
            close()


def _counted(rows: Iterator[Row], stats: PublishStats) -> Iterator[Row]:
    for row in rows:
        stats.rows_in += 1
        yield row


class XmlChunkStream:
    """One in-flight published document: ``Iterator[bytes]`` + lifecycle.

    Iterate (or call :meth:`read_all`) to drain the document; call
    :meth:`close` — or use it as a context manager — to abandon it early.
    Either way the underlying row source is torn down exactly once and
    every registered close hook fires exactly once, with the terminal
    error (or ``None`` on a clean finish/abandon) as its argument. After
    close, further ``next()`` raises ``StopIteration``.
    """

    def __init__(
        self,
        rows: Iterable[Row],
        spec: TaggerSpec,
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        encoding: str = "utf-8",
        governor: Governor | None = None,
        sql: str | None = None,
    ):
        self.spec = spec
        self.sql = sql
        self.governor = governor
        self.encoding = encoding
        self.stats = PublishStats()
        self.exhausted = False
        self._closed = False
        self._error: BaseException | None = None
        self._close_hooks: list[
            Callable[["XmlChunkStream", BaseException | None], None]
        ] = []
        self._gen = stream_document(
            rows,
            spec,
            chunk_bytes=chunk_bytes,
            encoding=encoding,
            governor=governor,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def __iter__(self) -> "XmlChunkStream":
        return self

    def __next__(self) -> bytes:
        if self._closed:
            raise StopIteration
        try:
            return next(self._gen)
        except StopIteration:
            self.exhausted = True
            self._finish(None)
            raise
        except BaseException as error:
            if isinstance(error, ReproError):
                # What the governor raises outside the row loop (the chunk
                # buffer charge, the per-chunk check) names the SQL too.
                error.add_context(sql=self.sql)
            self._finish(error)
            raise

    def read_all(self) -> bytes:
        """Drain the rest of the document into one bytes object.

        Convenience for tests and small documents — it defeats the
        constant-memory property by definition.
        """
        return b"".join(self)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def error(self) -> BaseException | None:
        """The error that terminated the stream, if any."""
        return self._error

    def on_close(
        self,
        hook: Callable[["XmlChunkStream", BaseException | None], None],
    ) -> None:
        """Register a hook fired exactly once when the stream finishes.

        If the stream is already finished the hook fires immediately —
        registration can never be silently lost to a race with
        exhaustion.
        """
        if self._closed:
            hook(self, self._error)
        else:
            self._close_hooks.append(hook)

    def close(self) -> None:
        """Abandon the stream; idempotent, never raises on double close."""
        self._finish(None)

    def _finish(self, error: BaseException | None) -> None:
        if self._closed:
            return
        self._closed = True
        self._error = error
        try:
            # May raise ValueError if another thread is blocked inside
            # next() right now (generator already executing); the hooks
            # must still fire — the governor's cancel event is what stops
            # the racing consumer.
            self._gen.close()
        except ValueError:  # pragma: no cover - cross-thread race
            pass
        finally:
            hooks, self._close_hooks = self._close_hooks, []
            for hook in hooks:
                hook(self, error)

    def __enter__(self) -> "XmlChunkStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        self._finish(None)
