"""Golden plan snapshots: EXPLAIN text for all 10 paper formulations.

The default planner's chosen plan for every paper-query formulation is
checked in verbatim under ``tests/snapshots/``, and the plan chosen with
the ``join_order`` rule off (every join region in its written order)
under ``tests/snapshots/written-order/``. Any rule or cost-model change
that alters a chosen plan fails here and must update the snapshot in the
same diff — making plan regressions reviewable as text diffs.

Regenerate with::

    PYTHONPATH=src python -m pytest tests/observe/test_plan_snapshots.py \
        --update-snapshots
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import Database
from repro.bench.fig8 import WRITTEN_ORDER
from repro.workloads.queries import PAPER_QUERIES

SNAPSHOT_DIR = Path(__file__).resolve().parent.parent / "snapshots"

#: Snapshot directory -> the planner options its plans are chosen under.
SNAPSHOT_SETS = {
    SNAPSHOT_DIR: None,
    SNAPSHOT_DIR / "written-order": WRITTEN_ORDER,
}


def formulations() -> list[tuple[str, str]]:
    out = []
    for query in PAPER_QUERIES:
        out.append((f"{query.name}-gapply", query.gapply_sql))
        out.append((f"{query.name}-baseline", query.baseline_sql))
        if query.naive_sql is not None:
            out.append((f"{query.name}-naive", query.naive_sql))
    return out


FORMULATIONS = formulations()


def test_all_ten_formulations_are_covered():
    assert len(FORMULATIONS) == 10


@pytest.mark.parametrize(
    "directory,label,sql",
    [
        pytest.param(
            directory,
            label,
            sql,
            id=label if directory == SNAPSHOT_DIR else f"{directory.name}-{label}",
        )
        for directory in SNAPSHOT_SETS
        for label, sql in FORMULATIONS
    ],
)
def test_explain_snapshot(tpch_catalog, directory, label, sql, update_snapshots):
    # Fresh Database (own empty plan cache) over the shared catalog: the
    # rendered "plan cache: miss" annotation stays deterministic no
    # matter which other tests warmed the session-scoped tpch_db.
    db = Database(tpch_catalog)
    options = SNAPSHOT_SETS[directory]
    rendered = db.sql(sql, explain=True, planner_options=options).render() + "\n"
    path = directory / f"{label}.txt"
    if update_snapshots:
        directory.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        return
    assert path.exists(), (
        f"missing snapshot {path.name}; run pytest with --update-snapshots"
    )
    expected = path.read_text()
    assert rendered == expected, (
        f"plan for {label} changed; if intentional, rerun with "
        f"--update-snapshots and commit the new snapshot\n--- expected ---\n"
        f"{expected}\n--- got ---\n{rendered}"
    )


def test_snapshots_have_no_strays():
    """Every checked-in snapshot corresponds to a live formulation."""
    known = {f"{label}.txt" for label, _ in FORMULATIONS}
    for directory in SNAPSHOT_SETS:
        present = {path.name for path in directory.glob("*.txt")}
        assert present <= known, f"stray snapshots: {sorted(present - known)}"
