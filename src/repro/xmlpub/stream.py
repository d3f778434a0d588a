"""Constant-memory streaming XML publishing.

The tagger (:mod:`repro.xmlpub.tagger`) is already an O(depth) consumer of
clustered rows — but every caller so far materialized the query result
first, so the serve layer could not ship documents larger than memory.
This module closes that gap: it couples the tagger to a *lazy* row source
(:meth:`Database.publish <repro.api.Database.publish>` hands it the
governed root loop, undrained: the executor's batches of rows, one list
at a time) and re-chunks the tagger's small text fragments into bounded
byte buffers, so the whole pipeline holds:

* the executor's working state (one group at a time for GApply, whose
  partition phase spills to disk under a memory budget);
* one batch of rows and the text fragments tagged from it;
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

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ReproError, XmlPublishError
from repro.execution.governor import Governor
from repro.execution.vector.batch import row_slices
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

    ``rows`` may be any iterable of clustered tagger-layout rows — a plain
    list in tests and benchmarks; :meth:`Database.publish` hands its row
    batches to :func:`stream_slices` directly. The concatenation of the
    yielded chunks is byte-identical to
    ``ConstantSpaceTagger(spec).tag_to_string(rows)`` encoded, for every
    ``chunk_bytes`` — chunking never moves document bytes, only their
    framing.
    """
    return stream_slices(
        row_slices(rows), spec, chunk_bytes=chunk_bytes, encoding=encoding,
        governor=governor, stats=stats,
    )


def stream_slices(
    slices: Iterable[Sequence[Row]],
    spec: TaggerSpec,
    *,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    encoding: str = "utf-8",
    governor: Governor | None = None,
    stats: PublishStats | None = None,
) -> Iterator[bytes]:
    """:func:`stream_document` over rows that already come in slices (the
    executor's batches). One slice of rows and the fragments tagged from it
    are in flight at a time, beside at most ``chunk_bytes`` (+ one
    fragment) of pending text; the accounting below runs once per slice,
    cutting the fragment list wherever the pending text reaches
    ``chunk_bytes``, so chunks end where a fragment-at-a-time loop would
    end them.

    Cleanup is guaranteed: on ``close()`` (GeneratorExit), an error, or
    exhaustion, ``slices`` is closed — releasing generator-held resources
    such as spill files — and any governor cells charged for the pending
    buffer are released.
    """
    if chunk_bytes < 1:
        raise XmlPublishError(
            f"chunk_bytes must be >= 1, got {chunk_bytes}"
        )
    pieces: list[str] = []
    pending = 0        # approximate pending size (str length)
    charged_cells = 0  # governor cells currently held for the buffer

    def buffer(fragments: list[str], size: int) -> None:
        nonlocal pending, charged_cells
        pieces.extend(fragments)
        pending += size
        if stats is not None and pending > stats.peak_buffer_bytes:
            stats.peak_buffer_bytes = pending
        if governor is not None:
            want = -(-pending // STREAM_CELL_BYTES)  # ceil division
            if want > charged_cells:
                # Charge before bumping the tally: a rejected charge is
                # rolled back by the governor, so the finally below must
                # not release cells we never held.
                governor.charge_cells(want - charged_cells)
                charged_cells = want

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

    def counted() -> Iterator[Sequence[Row]]:
        for rows in slices:
            stats.rows_in += len(rows)
            yield rows

    try:
        tagger = ConstantSpaceTagger(spec)
        for fragments in tagger.fragments(slices if stats is None else counted()):
            # ends[i]: text length of fragments[:i]
            ends = list(accumulate(map(len, fragments), initial=0))
            start = 0
            while True:
                # the first fragment at which pending text reaches the bound
                cut = bisect_left(
                    ends, ends[start] + chunk_bytes - pending, start + 1
                )
                if cut == len(ends):
                    break
                buffer(fragments[start:cut], ends[cut] - ends[start])
                yield flush()
                start = cut
            buffer(fragments[start:], ends[-1] - ends[start])
        if pieces:
            yield flush()
    finally:
        if governor is not None and charged_cells:
            governor.release_cells(charged_cells)
            charged_cells = 0
        close = getattr(slices, "close", None)
        if close is not None:
            close()


class XmlChunkStream:
    """One in-flight published document: ``Iterator[bytes]`` + lifecycle.

    ``slices`` is the row source as :func:`stream_slices` takes it: lists
    of clustered rows (:func:`~repro.execution.vector.batch.row_slices`
    cuts a plain row stream).
    Iterate (or call :meth:`read_all`) to drain the document; call
    :meth:`close` — or use it as a context manager — to abandon it early.
    Either way the underlying row source is torn down exactly once and
    every registered close hook fires exactly once, with the terminal
    error (or ``None`` on a clean finish/abandon) as its argument. After
    close, further ``next()`` raises ``StopIteration``.
    """

    def __init__(
        self,
        slices: Iterable[Sequence[Row]],
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
        self._gen = stream_slices(
            slices,
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
