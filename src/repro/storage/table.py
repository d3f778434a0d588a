"""In-memory multiset tables.

A :class:`Table` is a schema plus a list of row tuples. Lists (not sets)
because the whole paper is careful about *multiset* semantics: projection
does not deduplicate, UNION ALL keeps duplicates, and GApply's formal
definition unions per-group results with UNION ALL.

Tables double as the temporary relations that GApply binds to its
relation-valued ``$group`` parameter — the executor builds a small
``Table`` per group and the per-group plan's ``GroupScan`` leaf reads it.

**Versioning.** Tables are the unit of copy-on-write versioning behind
snapshot-isolated reads (:meth:`~repro.storage.catalog.Catalog.snapshot`):
:meth:`freeze` marks a table immutable — any further in-place mutation
raises — and :meth:`clone` produces the next writable version sharing the
schema and the (immutable) row tuples but owning a fresh row list and
fresh, lazily built indexes. A reader holding a frozen version can iterate
``rows`` without any lock while writers build and swap in new versions.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ConstraintError, SchemaError
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType, check_value, key_function

Row = tuple[Any, ...]


class Table:
    """A named multiset of rows conforming to a :class:`Schema`."""

    __slots__ = (
        "name", "schema", "rows", "primary_key", "indexes", "frozen",
        "frozen_statistics",
    )

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
        primary_key: Sequence[str] | None = None,
    ):
        self.name = name
        self.schema = schema
        self.primary_key: tuple[str, ...] | None = (
            tuple(primary_key) if primary_key else None
        )
        if self.primary_key:
            for col in self.primary_key:
                schema.index_of(col)  # validates
        self.indexes: dict[tuple[str, ...], Any] = {}
        self.frozen = False
        #: This version's statistics once a catalog computed them while it
        #: was frozen (see :meth:`~repro.storage.catalog.Catalog.statistics`):
        #: a frozen version never changes, so every snapshot holding it
        #: shares one computation.
        self.frozen_statistics = None
        self.rows: list[Row] = []
        for row in rows:
            self.insert(row)

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------

    def create_index(self, columns: Sequence[str]):
        """Create (or return the existing) index on the given columns.

        A new index on a frozen table raises :class:`ConstraintError`
        like any other in-place mutation."""
        from repro.storage.index import TableIndex

        key = tuple(self.schema.column(c).name for c in columns)
        existing = self.indexes.get(key)
        if existing is not None:
            return existing
        self._check_writable()
        index = TableIndex(self, key)
        self.indexes[key] = index
        return index

    def index_on(self, columns: Sequence[str]):
        """The index covering exactly these columns (any order), or None."""
        try:
            wanted = tuple(sorted(self.schema.column(c).name for c in columns))
        except Exception:
            return None
        for key, index in self.indexes.items():
            if tuple(sorted(key)) == wanted:
                return index
        return None

    def _invalidate_indexes(self) -> None:
        for index in self.indexes.values():
            index.invalidate()

    # ------------------------------------------------------------------
    # Versioning (copy-on-write snapshots)
    # ------------------------------------------------------------------

    def freeze(self) -> "Table":
        """Mark this version immutable; in-place mutation now raises.

        Called when the catalog hands the table out in a snapshot: readers
        may iterate ``rows`` lock-free forever after, so writers must go
        through :meth:`clone` and swap in the new version atomically.
        """
        self.frozen = True
        return self

    def clone(self) -> "Table":
        """The next writable version: shared schema and row *tuples*, but
        a fresh row list and fresh (unbuilt) indexes on the same column
        sets."""
        twin = Table(self.name, self.schema, primary_key=self.primary_key)
        twin.rows = list(self.rows)
        for columns in self.indexes:
            twin.create_index(columns)
        return twin

    def _check_writable(self) -> None:
        if self.frozen:
            raise ConstraintError(
                f"table {self.name!r} is a frozen snapshot version; "
                "writers must clone() and swap in a new version"
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def validate_row(self, row: Sequence[Any]) -> Row:
        """Width/type-check one row into the stored tuple form (without
        inserting it — the atomic write path validates a whole batch
        before touching any row list)."""
        if len(row) != len(self.schema):
            raise SchemaError(
                f"row width {len(row)} does not match schema width "
                f"{len(self.schema)} for table {self.name!r}"
            )
        return tuple(
            check_value(value, column.dtype)
            for value, column in zip(row, self.schema)
        )

    def insert(self, row: Sequence[Any]) -> None:
        """Append one row after width/type validation."""
        self._check_writable()
        self.rows.append(self.validate_row(row))
        self._invalidate_indexes()

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        count = 0
        for row in rows:
            self.insert(row)
            count += 1
        return count

    def clear(self) -> None:
        self._check_writable()
        self.rows.clear()
        self._invalidate_indexes()

    # ------------------------------------------------------------------
    # Constraint checking (used by the TPC-H loader and tests)
    # ------------------------------------------------------------------

    def check_primary_key(self) -> None:
        """Raise :class:`ConstraintError` if the declared key has duplicates
        or NULLs."""
        if not self.primary_key:
            return
        positions = self.schema.indices_of(self.primary_key)
        key_of = key_function(self.schema.types(positions))
        seen: set[tuple[Any, ...]] = set()
        for row in self.rows:
            key_values = tuple(row[i] for i in positions)
            if any(v is None for v in key_values):
                raise ConstraintError(
                    f"NULL in primary key {self.primary_key} of {self.name!r}"
                )
            key = key_of(key_values)
            if key in seen:
                raise ConstraintError(
                    f"duplicate primary key {key_values!r} in {self.name!r}"
                )
            seen.add(key)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def column_values(self, reference: str) -> list[Any]:
        """All values of one column, in row order (duplicates preserved)."""
        position = self.schema.index_of(reference)
        return [row[position] for row in self.rows]

    def head(self, n: int = 10) -> list[Row]:
        return self.rows[:n]

    def sorted_rows(self, by: Sequence[str]) -> list[Row]:
        """Rows sorted by the given columns, NULLS FIRST, stable."""
        positions = self.schema.indices_of(by)
        key_of = key_function(self.schema.types(positions))
        return sorted(
            self.rows, key=lambda row: key_of(tuple(row[i] for i in positions))
        )

    def filter(self, predicate: Callable[[Row], bool]) -> "Table":
        """A new unnamed table containing rows passing ``predicate``."""
        result = Table(f"{self.name}_filtered", self.schema)
        result.rows = [row for row in self.rows if predicate(row)]
        return result

    def to_dicts(self) -> list[dict[str, Any]]:
        """Rows as dicts keyed by qualified column name (for tests/docs)."""
        names = self.schema.qualified_names()
        return [dict(zip(names, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, {len(self.rows)} rows, {self.schema!r})"

    def pretty(self, limit: int = 20) -> str:
        """ASCII rendering of the table for examples and debugging."""
        from repro.storage.types import format_value

        headers = self.schema.qualified_names()
        body = [[format_value(v) for v in row] for row in self.rows[:limit]]
        widths = [
            max(len(h), *(len(r[i]) for r in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
        lines += [
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in body
        ]
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


def table_from_rows(
    name: str,
    columns: Sequence[tuple[str, DataType]],
    rows: Iterable[Sequence[Any]],
    primary_key: Sequence[str] | None = None,
) -> Table:
    """Build a table in one call; the standard test/bootstrap helper."""
    schema = Schema(Column(n, t, qualifier=name) for n, t in columns)
    return Table(name, schema, rows, primary_key=primary_key)
