"""Secondary indexes over in-memory tables.

The paper's measured rule benefits (Table 1's 732x selection wins, the
group-selection rewrites) presuppose a server where selective predicates
and key lookups are cheap — i.e. indexed access paths. This module
provides:

* **hash lookup** on any column combination (equality seeks, index
  nested-loop joins);
* **ordered access** on single comparable columns (range seeks), via a
  sorted key array and binary search.

Indexes are rebuilt lazily after table mutations. The built structures
are published **atomically** as one state tuple: concurrent readers — two
snapshot queries sharing a frozen table version is the common case — each
pick up either a complete build or trigger their own, never a
half-assigned mix of buckets from one build and sorted arrays from
another.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, NamedTuple, Sequence

from repro.errors import SchemaError
from repro.storage.table import Row, Table
from repro.storage.types import grouping_key, key_function, value_key


class _IndexState(NamedTuple):
    """One complete build, published in a single attribute store."""

    buckets: dict[tuple, list[Row]]
    sorted_keys: list | None
    sorted_rows: list[Row] | None
    row_count: int


class TableIndex:
    """One index: table + column list; hash buckets plus sorted keys."""

    def __init__(self, table: Table, columns: Sequence[str]):
        if not columns:
            raise SchemaError("index requires at least one column")
        self.table = table
        self.columns = tuple(columns)
        self._positions = table.schema.indices_of(columns)
        dtypes = table.schema.types(self._positions)
        #: The bucket key of a values tuple, and (single column) the sort
        #: key of a value: the indexed columns' key functions.
        self._key = key_function(dtypes)
        self._value_key = value_key(dtypes[0])
        self._state: _IndexState | None = None

    # ------------------------------------------------------------------
    # Build / invalidate
    # ------------------------------------------------------------------

    @property
    def is_single_column(self) -> bool:
        return len(self.columns) == 1

    def invalidate(self) -> None:
        self._state = None

    def _ensure_built(self) -> _IndexState:
        """The current complete state, building it if stale.

        Everything is computed into locals and installed with one
        assignment, so a reader racing a rebuild sees the old complete
        state or the new complete state — worst case two threads build
        redundantly, and the last store wins with an equivalent result.
        """
        rows = self.table.rows
        state = self._state
        if state is not None and state.row_count == len(rows):
            return state
        buckets: dict[tuple, list[Row]] = {}
        key_of = self._key
        for row in rows:
            values = tuple(row[i] for i in self._positions)
            if any(v is None for v in values):
                continue  # NULL keys are never matched by = or ranges
            buckets.setdefault(key_of(values), []).append(row)
        sorted_keys: list | None = None
        sorted_rows: list[Row] | None = None
        if self.is_single_column:
            position = self._positions[0]
            value_key_of = self._value_key
            pairs = sorted(
                (
                    (value_key_of(row[position]), row)
                    for row in rows
                    if row[position] is not None
                ),
                key=lambda pair: pair[0],
            )
            sorted_keys = [key for key, _ in pairs]
            sorted_rows = [row for _, row in pairs]
        state = _IndexState(buckets, sorted_keys, sorted_rows, len(rows))
        self._state = state
        return state

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def lookup(self, values: Sequence[Any]) -> list[Row]:
        """Rows whose indexed columns equal ``values`` (SQL = semantics:
        NULL matches nothing). The values may be of any type, so they are
        keyed as ANY, which agrees with every column type's key."""
        if any(v is None for v in values):
            return []
        state = self._ensure_built()
        return state.buckets.get(grouping_key(tuple(values)), [])

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Row]:
        """Rows with indexed value in [low, high] (single-column only)."""
        if not self.is_single_column:
            raise SchemaError(
                f"range scan requires a single-column index, have {self.columns}"
            )
        state = self._ensure_built()
        assert state.sorted_keys is not None and state.sorted_rows is not None
        keys = state.sorted_keys
        start = 0
        if low is not None:
            low = grouping_key((low,))[0]
            start = (
                bisect.bisect_left(keys, low)
                if low_inclusive
                else bisect.bisect_right(keys, low)
            )
        end = len(keys)
        if high is not None:
            high = grouping_key((high,))[0]
            end = (
                bisect.bisect_right(keys, high)
                if high_inclusive
                else bisect.bisect_left(keys, high)
            )
        for index in range(start, end):
            yield state.sorted_rows[index]

    def distinct_key_count(self) -> int:
        return len(self._ensure_built().buckets)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableIndex({self.table.name}.{','.join(self.columns)})"
