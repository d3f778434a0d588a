"""The two oracles — SQLite and the row iterators — and NULL-aware
multiset comparison.

:func:`reference_rows` runs a statement's lowered plan through
``PhysicalOperator.execute`` alone: the reference every compiled plan is
compared with, by the fuzz profiles and the tests alike. What anchors
that reference is the differential fuzzer's ground truth: mirror the engine catalog into an
in-memory ``sqlite3`` database, run the lowered query
(:func:`repro.sql.sqlite.to_sqlite`) there, and compare its rows against
the engine's as *multisets* — neither side guarantees an order, and both
sides' NULLs must compare equal to each other for the purpose of "same
bag of rows".

Normalization rules (`normalize_value`):

* ``bool`` -> ``int`` (the engine has a BOOLEAN type, SQLite stores 0/1);
* ``date`` -> ISO string (SQLite has no date type; the mirror stores text);
* integral ``float`` -> ``int`` (SQLite's ``sum`` over INTEGER yields int
  where the engine may carry float, and vice versa for ``avg``);
* every NaN -> one token, so the multisets compare it (NaN != NaN);
* other floats are rounded through ``repr`` at 12 significant digits so
  the two engines' different summation orders cannot manufacture a
  last-ulp mismatch (the generator additionally emits only values exactly
  representable in binary, making sums order-independent in practice).
"""

from __future__ import annotations

import datetime as _dt
import sqlite3
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

from repro.execution.context import ExecutionContext
from repro.sql import ast as A
from repro.sql.parser import parse
from repro.sql.sqlite import to_sqlite
from repro.storage.catalog import Catalog
from repro.storage.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Database

_SQLITE_TYPES = {
    DataType.INTEGER: "INTEGER",
    DataType.FLOAT: "REAL",
    DataType.STRING: "TEXT",
    DataType.BOOLEAN: "INTEGER",
    DataType.DATE: "TEXT",
    DataType.ANY: "",
}


def reference_rows(
    database: "Database",
    text: str,
    ctx: ExecutionContext | None = None,
    **options: Any,
) -> Iterator[tuple]:
    """``text`` on the row iterators: the reference every compiled plan
    is held to (the SQLite oracle anchors it in turn).

    The statement is lowered exactly as ``database.sql(text, **options)``
    lowers it — same option handling, same plan cache — and the physical
    plan is then driven through ``PhysicalOperator.execute`` alone, so no
    batch node runs. ``ctx`` carries what the caller wants observed or
    enforced: counters, a metrics registry (the plan is registered on it
    here), a governor. ``max_rows`` is a budget of ``Database``'s root
    loop and has no reference.
    """
    physical = database.sql(text, explain="plan", **options).physical_plan
    if ctx is None:
        ctx = ExecutionContext()
    if ctx.metrics is not None:
        ctx.metrics.register_plan(physical)
    return physical.execute(ctx)


def _storage_value(value):
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, _dt.date):
        return value.isoformat()
    return value


def sqlite_mirror(catalog: Catalog) -> sqlite3.Connection:
    """An in-memory SQLite database holding every catalog table.

    Column names are the engine's bare names (the dialect requires them
    to be unambiguous, so no qualification is needed on the mirror side).
    """
    connection = sqlite3.connect(":memory:")
    for table in catalog:
        decls = ", ".join(
            f'"{column.name}" {_SQLITE_TYPES[column.dtype]}'.strip()
            for column in table.schema
        )
        connection.execute(f'CREATE TABLE "{table.name}" ({decls})')
        if table.rows:
            slots = ", ".join("?" for _ in table.schema)
            connection.executemany(
                f'INSERT INTO "{table.name}" VALUES ({slots})',
                [tuple(_storage_value(v) for v in row) for row in table.rows],
            )
    connection.commit()
    return connection


def run_oracle(
    query: str | A.AstQuery, connection: sqlite3.Connection
) -> list[tuple]:
    """Lower a dialect query and execute it on the SQLite mirror."""
    ast = parse(query) if isinstance(query, str) else query
    return [tuple(row) for row in connection.execute(to_sqlite(ast))]


# ----------------------------------------------------------------------
# Normalization + comparison
# ----------------------------------------------------------------------


#: What every NaN normalizes to.
NAN_TOKEN = "<NaN>"


def normalize_value(value):
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, _dt.date):
        return value.isoformat()
    if isinstance(value, float):
        if value != value:
            return NAN_TOKEN
        if value.is_integer():
            return int(value)
        return float(f"{value:.12g}")
    return value


def normalize_row(row: tuple) -> tuple:
    return tuple(normalize_value(value) for value in row)


def _sort_key(row: tuple):
    # NULL-aware total order: None sorts first within its column, and the
    # type name breaks ties between int/str etc. so heterogeneous columns
    # (possible via CASE/coalesce) still sort deterministically.
    return tuple(
        (0, "", 0) if value is None else (1, type(value).__name__, value)
        for value in row
    )


def _ordered(rows: list[tuple]) -> list[tuple]:
    normalized = [normalize_row(row) for row in rows]
    try:
        return sorted(normalized, key=_sort_key)
    except TypeError:
        # Same column holds e.g. int and str across rows; fall back to a
        # representation sort (still a total order, still deterministic).
        return sorted(normalized, key=repr)


@dataclass(frozen=True)
class Mismatch:
    """First divergences between two normalized multisets, for reporting."""

    left_only: tuple[tuple, ...]
    right_only: tuple[tuple, ...]

    def describe(self, left_name: str = "engine", right_name: str = "oracle") -> str:
        lines = []
        for name, rows in ((left_name, self.left_only), (right_name, self.right_only)):
            for row in rows[:5]:
                lines.append(f"  only in {name}: {row!r}")
        return "\n".join(lines) or "  (row counts differ)"


def compare_multisets(left: list[tuple], right: list[tuple]) -> Mismatch | None:
    """None when the two row bags are equal after normalization."""
    left_sorted = _ordered(left)
    right_sorted = _ordered(right)
    if left_sorted == right_sorted:
        return None
    from collections import Counter

    left_counts = Counter(left_sorted)
    right_counts = Counter(right_sorted)
    left_only = tuple(row for row in left_sorted if left_counts[row] > right_counts[row])
    right_only = tuple(
        row for row in right_sorted if right_counts[row] > left_counts[row]
    )
    return Mismatch(left_only=left_only, right_only=right_only)
