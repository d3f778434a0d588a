"""The columnar batch: the unit of data flow in the vector engine.

A :class:`ColumnBatch` holds up to ``batch_size`` tuples in one of two
physical representations, converting lazily between them:

* **columnar** — one Python list (or tuple) per column, optionally viewed
  through a *selection vector* ``sel`` mapping logical position ``i`` to
  physical position ``sel[i]``. Filters produce selection views instead
  of copying every surviving column; the copy happens at most once, the
  first time a consumer actually asks for a column (:meth:`_compact`).
* **row-major** — a list of row tuples. Operators that naturally produce
  rows (index lookups, hash-join output, Volcano fallbacks) hand the row
  list over as-is; columns are materialized only if an expression needs
  one. The row cache also makes pipelines like scan→sort free of the
  columnar round-trip: the scan keeps the original row slice cached.

NULLs are plain ``None`` values inside columns — the same representation
the row engine uses — and :meth:`null_mask` derives (and caches) a
boolean validity mask per column for kernels that want one. There is no
separate bitmap to keep coherent.

Batches are immutable from the consumer's point of view: every
transforming method returns a new batch, sharing unmodified column
storage with its parent. (Compaction rebinds ``_columns`` to fresh
lists; it never mutates a shared list in place.)
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Sequence

#: Default number of rows per batch. Large enough that per-batch Python
#: overhead (dispatch, counter updates, governor ticks) amortizes to
#: noise; small enough that a join stage's output for one input batch —
#: every match concatenated, ~80 rows per probe row on the sorted-outer-
#: union plans — stays near what the row iterators hold. Measured on Q4's
#: baseline plan at scale 1.0 (DESIGN.md §12.1 has scale 0.5): traced
#: allocation peak 6.2 MB at 1024, 2.5 MB at 256, 2.2 MB at 128 against
#: Volcano's 2.3 MB, with run times equal within noise down to 64.
DEFAULT_BATCH_SIZE = 128


class ColumnBatch:
    """A batch of rows in columnar and/or row-major form.

    Exactly one of ``columns``/``rows`` may be omitted. ``sel`` (a list of
    physical indices) is only meaningful with ``columns``. Zero-*width*
    batches are represented as ``columns=[]`` with an explicit ``length``;
    zero-*length* batches should not be constructed — pipeline stages
    return ``None`` instead of an empty batch.
    """

    __slots__ = ("_columns", "_rows", "_sel", "_masks", "length")

    def __init__(
        self,
        columns: list[Sequence] | None = None,
        length: int | None = None,
        rows: list[tuple] | None = None,
        sel: list[int] | None = None,
    ):
        if columns is None and rows is None:
            raise ValueError("ColumnBatch needs columns or rows")
        if length is None:
            if rows is not None:
                length = len(rows)
            elif columns:
                length = len(sel) if sel is not None else len(columns[0])
            else:
                raise ValueError("zero-width ColumnBatch needs an explicit length")
        self._columns = columns
        self._rows = rows
        self._sel = sel
        self._masks = None
        self.length = length

    # ------------------------------------------------------------------
    # Representation management
    # ------------------------------------------------------------------

    @property
    def has_rows(self) -> bool:
        """True when a row-major form is already materialized."""
        return self._rows is not None

    def _compact(self) -> None:
        """Apply the pending selection vector to every column at once."""
        sel = self._sel
        if sel is None:
            return
        self._columns = [[col[j] for j in sel] for col in self._columns]
        self._sel = None

    def _materialize_columns(self) -> None:
        rows = self._rows
        if not rows:
            raise ValueError("cannot infer width of an empty row batch")
        self._columns = list(zip(*rows))

    def column(self, position: int) -> Sequence:
        """Column ``position`` as a dense sequence of ``length`` values."""
        if self._columns is None:
            self._materialize_columns()
        elif self._sel is not None:
            self._compact()
        return self._columns[position]

    def rows(self) -> list[tuple]:
        """The batch as a list of row tuples (cached)."""
        if self._rows is None:
            if self._sel is not None:
                self._compact()
            cols = self._columns
            if not cols:
                self._rows = [()] * self.length
            else:
                self._rows = list(zip(*cols))
        return self._rows

    def null_mask(self, position: int) -> list[bool]:
        """Validity mask for one column: ``True`` where the value is NULL.

        Derived from the ``None`` values and cached per column; kernels
        that prefer bitmap-style iteration use this instead of re-testing
        ``is None`` in every expression.
        """
        if self._masks is None:
            self._masks = {}
        mask = self._masks.get(position)
        if mask is None:
            mask = [value is None for value in self.column(position)]
            self._masks[position] = mask
        return mask

    # ------------------------------------------------------------------
    # Transformations (all return new batches)
    # ------------------------------------------------------------------

    def select(self, indices: list[int]) -> "ColumnBatch":
        """Keep the rows at the given logical positions, in order."""
        if self._rows is not None and self._columns is None:
            rows = self._rows
            picked = [rows[i] for i in indices]
            return ColumnBatch(rows=picked, length=len(picked))
        sel = self._sel
        if sel is not None:
            indices = [sel[i] for i in indices]
        return ColumnBatch(columns=self._columns, length=len(indices), sel=indices)

    def head(self, count: int) -> "ColumnBatch":
        """The first ``count`` rows."""
        if self._rows is not None and self._columns is None:
            return ColumnBatch(rows=self._rows[:count], length=count)
        if self._sel is not None:
            return ColumnBatch(
                columns=self._columns, length=count, sel=self._sel[:count]
            )
        return ColumnBatch(
            columns=[col[:count] for col in self._columns], length=count
        )

    def project_columns(self, positions: Sequence[int]) -> "ColumnBatch":
        """A batch with only the given columns, in the given order.

        Requires (and triggers) the columnar form; dropped columns with a
        pending selection vector are never compacted.
        """
        if self._columns is None:
            self._materialize_columns()
        cols = self._columns
        return ColumnBatch(
            columns=[cols[p] for p in positions], length=self.length, sel=self._sel
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def from_rows(rows: list[tuple], width: int) -> "ColumnBatch":
        """Wrap a freshly-built row list (kept as the row-major cache)."""
        if width == 0:
            return ColumnBatch(columns=[], length=len(rows))
        return ColumnBatch(rows=rows, length=len(rows))


def row_slices(rows: Iterable, size: int = DEFAULT_BATCH_SIZE) -> Iterator[list]:
    """Cut a row stream into lists of at most ``size`` rows. Closing the
    slices closes a ``rows`` that can be closed."""
    iterator = iter(rows)
    try:
        while chunk := list(islice(iterator, size)):
            yield chunk
    finally:
        close = getattr(iterator, "close", None)
        if close is not None:
            close()
