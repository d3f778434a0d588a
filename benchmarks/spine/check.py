"""Output checks that feed ``error_share``.

* SQL rows must equal, as multisets, what the SQLite oracle
  (:mod:`repro.fuzz.oracle`) returns for the same text; the oracle runs
  once per distinct text, before the timed phase.
* Every published document must be well-formed (expat), and the
  ``gapply`` and ``union`` documents of one query must hold the same
  group elements, byte for byte (their order is the formulation's own).
* After a durable workload, a reopen must return exactly the
  acknowledged rows.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Sequence
from xml.parsers import expat

from repro.api import Database
from repro.fuzz.oracle import normalize_row, run_oracle, sqlite_mirror
from repro.storage.catalog import Catalog


class SqlOracle:
    """Expected row multisets for a fixed set of SQL texts."""

    def __init__(self, catalog: Catalog, texts: Iterable[str]):
        connection = sqlite_mirror(catalog)
        try:
            self._expected = {
                text: _multiset(run_oracle(text, connection))
                for text in dict.fromkeys(texts)
            }
        finally:
            connection.close()

    def matches(self, text: str, rows: Sequence[tuple]) -> bool:
        return _multiset(rows) == self._expected[text]


def _multiset(rows: Iterable[tuple]) -> Counter:
    return Counter(map(normalize_row, rows))


def well_formed(document: bytes) -> bool:
    parser = expat.ParserCreate()
    try:
        parser.Parse(document, True)
    except expat.ExpatError:
        return False
    return True


class DocumentCheck:
    """Well-formedness, plus equality with the first document up to the
    order of its group elements.

    The query fixes no order among groups: the sorted outer union emits
    them by key, GApply in partition order, so the two formulations are
    the same document only as a multiset of ``<group_tag>`` elements
    (each element byte-identical). A document byte-identical to one
    already accepted needs no second parse.
    """

    def __init__(self, group_tag: str):
        tag = re.escape(group_tag.encode())
        self._group = re.compile(b"<" + tag + b">.*?</" + tag + b">", re.DOTALL)
        self._reference: list[bytes] | None = None
        self._accepted: set[bytes] = set()

    def accepts(self, document: bytes) -> bool:
        if document in self._accepted:
            return True
        if not well_formed(document):
            return False
        groups = sorted(self._group.findall(document))
        frame = self._group.sub(b"", document)
        canonical = [frame, *groups]
        if self._reference is None:
            self._reference = canonical
        elif canonical != self._reference:
            return False
        self._accepted.add(document)
        return True


def reopened_rows(path: str, table: str) -> list[tuple]:
    """The rows of ``table`` as a fresh recovery of ``path`` sees them."""
    database = Database.open(path, fsync="never")
    try:
        return list(database.table(table).rows)
    finally:
        database.close()
