"""Greedy minimization of failing fuzz cases.

``shrink`` repeatedly asks a candidate generator for structurally smaller
variants of a failing case and keeps any variant for which the caller's
``still_fails`` predicate holds, until a fixpoint or the evaluation
budget runs out. The SQL passes (:func:`sql_candidates`), in rough order
of payoff:

* drop whole tables (with their foreign keys);
* delta-debug table rows (halves, then quarters, ... then single rows);
* drop union branches, WHERE/HAVING clauses, DISTINCT;
* drop select-item positions (consistently across union branches and the
  gapply column-name list);
* drop surplus grouping keys.

The tagger-level passes (:func:`xmlpub_candidates`) delta-debug the row
stream the same way, then simplify string values cell by cell.

The result is what lands in ``tests/fuzz_corpus/`` — small enough to
read, and each pass preserves validity *by construction or by re-check*
(an invalid variant simply fails ``still_fails`` and is discarded), so
the shrinker never needs dialect-specific validation.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Iterator, TypeVar

from repro.fuzz.generator import FuzzCase, FuzzDatabase, FuzzTable
from repro.sql import ast as A

Case = TypeVar("Case")

#: ``still_fails`` evaluations one minimization may spend.
SHRINK_BUDGET = 400


def shrink(
    case: Case,
    candidates: Callable[[Case], Iterator[Case]],
    still_fails: Callable[[Case], bool],
) -> Case:
    """Smallest variant of ``case`` (greedy) that still fails."""
    evaluations = 0
    current = case
    improved = True
    while improved and evaluations < SHRINK_BUDGET:
        improved = False
        for candidate in candidates(current):
            evaluations += 1
            if evaluations >= SHRINK_BUDGET:
                break
            try:
                failing = still_fails(candidate)
            except Exception:
                failing = False
            if failing:
                current = candidate
                improved = True
                break
    return current


def sql_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    yield from _drop_tables(case)
    yield from _reduce_rows(case)
    yield from _reduce_query(case)


def xmlpub_candidates(case: Any) -> Iterator[Any]:
    """Variants of an :class:`~repro.fuzz.xmlpub.XmlPubCase`: fewer rows
    (largest step first), then simpler strings cell by cell."""
    for rows in _without_chunks(case.rows):
        yield replace(case, rows=rows)
    for row_index, row in enumerate(case.rows):
        for cell_index, value in enumerate(row):
            for simpler in _simplified_strings(value):
                new_row = row[:cell_index] + (simpler,) + row[cell_index + 1:]
                yield replace(
                    case,
                    rows=case.rows[:row_index]
                    + [new_row]
                    + case.rows[row_index + 1:],
                )


def _simplified_strings(value: Any) -> list[Any]:
    if not isinstance(value, str) or not value:
        return []
    candidates = [""]
    if len(value) > 1:
        # Each single character on its own often preserves the bug.
        candidates.extend(sorted(set(value), key=value.index)[:4])
    return candidates


def _without_chunks(rows: list[tuple]) -> Iterator[list[tuple]]:
    """``rows`` with one chunk removed: halves, quarters, ... single rows."""
    n = len(rows)
    chunk = n // 2 or 1
    while n and chunk:
        for start in range(0, n, chunk):
            yield rows[:start] + rows[start + chunk:]
        chunk //= 2


# ----------------------------------------------------------------------
# Database reductions
# ----------------------------------------------------------------------


def _drop_tables(case: FuzzCase) -> Iterator[FuzzCase]:
    if len(case.db.tables) <= 1:
        return
    for victim in case.db.tables:
        tables = [t for t in case.db.tables if t is not victim]
        fks = [
            fk
            for fk in case.db.foreign_keys
            if victim.name not in (fk[0], fk[2])
        ]
        yield replace(case, db=FuzzDatabase(tables, fks))


def _reduce_rows(case: FuzzCase) -> Iterator[FuzzCase]:
    for index, table in enumerate(case.db.tables):
        for rows in _without_chunks(table.rows):
            yield _with_table(case, index, replace_rows(table, rows))


def replace_rows(table: FuzzTable, rows: list[tuple]) -> FuzzTable:
    return FuzzTable(table.name, table.columns, rows, table.primary_key)


def _with_table(case: FuzzCase, index: int, table: FuzzTable) -> FuzzCase:
    tables = list(case.db.tables)
    tables[index] = table
    return replace(case, db=FuzzDatabase(tables, case.db.foreign_keys))


# ----------------------------------------------------------------------
# Query reductions
# ----------------------------------------------------------------------


def _with_query(case: FuzzCase, query: A.AstQuery) -> FuzzCase:
    return replace(case, query=query)


def _reduce_query(case: FuzzCase) -> Iterator[FuzzCase]:
    query = case.query
    # Drop top-level union branches.
    if len(query.selects) > 1:
        for index in range(len(query.selects)):
            selects = query.selects[:index] + query.selects[index + 1:]
            yield _with_query(case, replace(query, selects=selects))
    for s_index, select in enumerate(query.selects):
        for reduced in _reduce_select(select):
            selects = (
                query.selects[:s_index] + (reduced,) + query.selects[s_index + 1:]
            )
            yield _with_query(case, replace(query, selects=selects))


def _reduce_select(
    select: A.AstSelect, drop_items: bool = True
) -> Iterator[A.AstSelect]:
    if select.where is not None:
        yield replace(select, where=None)
    if select.having is not None:
        yield replace(select, having=None)
    if select.distinct:
        yield replace(select, distinct=False)
    if len(select.group_by) > 1:
        for index in range(len(select.group_by)):
            keys = select.group_by[:index] + select.group_by[index + 1:]
            yield replace(select, group_by=keys)
    if select.gapply is not None:
        yield from _reduce_gapply(select)
    elif drop_items and len(select.items) > 1 and not select.group_by:
        for index in range(len(select.items)):
            items = select.items[:index] + select.items[index + 1:]
            yield replace(select, items=items)


def _reduce_gapply(select: A.AstSelect) -> Iterator[A.AstSelect]:
    gapply = select.gapply
    pgq = gapply.query
    # Drop PGQ union branches.
    if len(pgq.selects) > 1:
        for index in range(len(pgq.selects)):
            selects = pgq.selects[:index] + pgq.selects[index + 1:]
            yield replace(
                select, gapply=replace(gapply, query=replace(pgq, selects=selects))
            )
    # Reduce inside each branch (item drops must stay arity-synced across
    # branches, so they happen only in the dedicated pass below).
    for b_index, branch in enumerate(pgq.selects):
        for reduced in _reduce_select(branch, drop_items=False):
            selects = pgq.selects[:b_index] + (reduced,) + pgq.selects[b_index + 1:]
            yield replace(
                select, gapply=replace(gapply, query=replace(pgq, selects=selects))
            )
    # Drop one output position across all branches + the column names.
    arity = min(len(branch.items) for branch in pgq.selects)
    if arity > 1 and all(len(b.items) == arity for b in pgq.selects):
        for position in range(arity):
            if any(b.group_by for b in pgq.selects) and position == 0:
                continue  # position 0 is the inner grouping key
            selects = tuple(
                replace(b, items=b.items[:position] + b.items[position + 1:])
                for b in pgq.selects
            )
            names = gapply.column_names
            if len(names) == arity:
                names = names[:position] + names[position + 1:]
            yield replace(
                select,
                gapply=A.AstGApplyItem(replace(pgq, selects=selects), names),
            )
