"""Persistence for minimized fuzz reproducers.

A corpus case is one JSON file under ``tests/fuzz_corpus/`` carrying the
full failing input — schema, data, foreign keys, and the query as dialect
SQL text — plus metadata about what failed. Replaying a case re-runs the
*differential check itself* (engine vs. oracle vs. plan space), so the
corpus doubles as a regression suite: every engine bug the fuzzer ever
found stays fixed, or the replay test fails.

Filenames are content-addressed (``fuzz-<kind>-<digest>.json``) so two
shrinks of the same bug collide instead of accumulating. Every profile's
reproducers share that scheme (:func:`write_reproducer`) and a directory
may hold them side by side: a loader reads the kinds it understands
(:func:`read_reproducers`) and skips the rest.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from repro.fuzz.generator import FuzzCase, FuzzColumn, FuzzDatabase, FuzzTable
from repro.sql.parser import parse
from repro.storage.types import DataType

if TYPE_CHECKING:
    from repro.fuzz.driver import Failure

#: Kinds whose payload is a SQL case (what :func:`save_case` is handed):
#: the differential check's, the plan-cache check's, the driver's crash.
SQL_KINDS = frozenset(
    {
        "engine-error",
        "oracle",
        "oracle-error",
        "planspace",
        "planspace-error",
        "plancache",
        "crash",
    }
)


@dataclass(frozen=True)
class CorpusCase:
    """One reproducer loaded from (or bound for) the corpus directory."""

    seed: int
    kind: str
    config: str | None
    detail: str
    sql: str
    db: FuzzDatabase
    path: Path | None = None

    def to_fuzz_case(self) -> FuzzCase:
        return FuzzCase(seed=self.seed, db=self.db, query=parse(self.sql))


def _database_payload(db: FuzzDatabase) -> dict:
    return {
        "tables": [
            {
                "name": table.name,
                "columns": [[c.name, c.dtype.value, c.role] for c in table.columns],
                "primary_key": list(table.primary_key),
                "rows": [list(row) for row in table.rows],
            }
            for table in db.tables
        ],
        "foreign_keys": [list(fk) for fk in db.foreign_keys],
    }


def _database_from_payload(payload: dict) -> FuzzDatabase:
    tables = [
        FuzzTable(
            name=entry["name"],
            columns=[
                FuzzColumn(name, DataType(dtype), role)
                for name, dtype, role in entry["columns"]
            ],
            rows=[tuple(row) for row in entry["rows"]],
            primary_key=list(entry["primary_key"]),
        )
        for entry in payload["tables"]
    ]
    fks = [tuple(fk) for fk in payload.get("foreign_keys", [])]
    return FuzzDatabase(tables, fks)


def save_case(failure: Failure, directory: Path | str) -> Path:
    """Write a failing SQL case as one reproducer; returns its
    (content-addressed) path. The typed writer of every profile whose
    cases are :class:`FuzzCase`.

    A per-operator metrics snapshot of the case's default execution rides
    along as diagnostic context for whoever picks the case up. It is
    excluded from the content digest: two shrinks of the same bug must
    still collide even if instrumentation output changes between engine
    versions.
    """
    case = failure.case
    payload = {
        "seed": case.seed,
        "kind": failure.kind,
        "config": failure.config,
        "detail": failure.detail,
        "sql": case.sql,
        **_database_payload(case.db),
    }
    try:
        result = case.db.build().sql(case.sql, collect_metrics=True)
        extra = {"metrics": result.metrics.snapshot()}
    except Exception:
        # Best-effort: error-kind failures cannot execute at all, and a
        # metrics failure must never mask the bug being persisted.
        extra = {}
    return write_reproducer(directory, payload, extra)


def write_reproducer(
    directory: Path | str, payload: dict, extra: dict | None = None
) -> Path:
    """Write ``payload`` (and ``extra``, which stays out of the digest) as
    ``fuzz-<kind>-<digest>.json``; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:12]
    path = directory / f"fuzz-{payload['kind']}-{digest}.json"
    path.write_text(json.dumps({**payload, **(extra or {})}, indent=2) + "\n")
    return path


def read_reproducers(
    directory: Path | str, kinds: frozenset[str]
) -> Iterator[tuple[Path, dict]]:
    """(path, payload) of every reproducer under ``directory`` whose kind
    is one of ``kinds``, in name order. Other profiles' reproducers and
    files that are not reproducers at all (CI's old list-shaped failure
    dumps) are skipped, so mixed directories load."""
    directory = Path(directory)
    if not directory.is_dir():
        return
    for path in sorted(directory.glob("*.json")):
        payload = json.loads(path.read_text())
        if isinstance(payload, dict) and payload.get("kind") in kinds:
            yield path, payload


def load_corpus(directory: Path | str) -> list[CorpusCase]:
    return [
        CorpusCase(
            seed=payload["seed"],
            kind=payload["kind"],
            config=payload.get("config"),
            detail=payload.get("detail", ""),
            sql=payload["sql"],
            db=_database_from_payload(payload),
            path=path,
        )
        for path, payload in read_reproducers(directory, SQL_KINDS)
    ]
