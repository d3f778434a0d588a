"""External-merge spill for ORDER BY and DISTINCT (DESIGN.md §10.2).

The contract mirrors GApply's partition spill: under a governor cell
budget, ``PSort`` and ``PDistinct`` spill sorted runs to disk and
stream a stable merge — producing rows *byte-identical* to the
unbudgeted in-memory path (including DESC directions, NULLs, duplicate
keys, and DISTINCT's first-appearance order), releasing every charged
cell, and leaking no spill files. A budget smaller than a single row
still raises the typed error: spilling frees the buffer, not the row.

Each budgeted run through ``Database.sql`` (the compiled plan) is also
held to the same plan under the same budget on the row iterators
(``reference_rows``): rows, ``Counters`` and per-operator metrics equal,
with everything below the sort or dedupe still running as batch nodes.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import MemoryBudgetExceeded
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.execution.governor import Budget, Governor
from repro.fuzz.oracle import reference_rows
from repro.observe.metrics import MetricsRegistry
from repro.storage import DataType
from repro.storage.spill import live_spill_files

BUDGET = 64  # far below the ~1200-cell working set of the fixture


@pytest.fixture
def db() -> Database:
    db = Database()
    rows = []
    for i in range(400):
        rows.append(
            (
                i,
                i % 7 if i % 11 else None,  # dup keys and NULLs
                float((i * 37) % 100),
                f"s{i % 5}",
            )
        )
    db.create_table(
        "t",
        [
            ("id", DataType.INTEGER),
            ("g", DataType.INTEGER),
            ("x", DataType.FLOAT),
            ("s", DataType.STRING),
        ],
        rows,
    )
    return db


SORT_QUERIES = [
    "select id, g, x from t order by x",
    "select id, g, x from t order by x desc",
    "select id, g, x, s from t order by g, x desc, s",
    "select g, s from t order by s desc, g",
]

DISTINCT_QUERIES = [
    "select distinct g from t",
    "select distinct g, s from t",
]

#: Two holders of one budget: the sort is fed a batch at a time, so the
#: dedupe below it has released its tail before the last batch arrives
#: and the retry points (not the rows, not the work) can differ from the
#: row-at-a-time reference (DESIGN.md §10.2, "One limit").
SORT_OVER_DISTINCT = "select distinct s, x from t order by s, x"
SPILL_FIELDS = ("spill_runs", "spilled_rows", "spill_bytes")

#: A budgeted ORDER BY and a budgeted DISTINCT over a hash join: the join
#: and the scans below it must keep running as compiled batch nodes.
OVER_A_JOIN = [
    "select a.id, b.x, b.s from t a, t b where a.id = b.id order by b.x desc, a.id",
    "select distinct a.g, b.s from t a, t b where a.id = b.id",
]


def budgeted_reference(db: Database, sql: str, budget: int = BUDGET):
    """(rows, context) of ``sql`` on the row iterators under ``budget``."""
    ctx = ExecutionContext(
        metrics=MetricsRegistry(),
        governor=Governor(Budget(memory_cells=budget)),
    )
    return list(reference_rows(db, sql, ctx)), ctx


def assert_spills_like_the_reference(db: Database, sql: str, drop=()):
    def kept(counts: dict) -> dict:
        return {k: v for k, v in counts.items() if k not in drop}

    plain = db.sql(sql)
    spilled = db.sql(sql, memory_budget=BUDGET, collect_metrics=True)
    rows, reference = budgeted_reference(db, sql)
    assert spilled.rows == plain.rows == rows
    assert kept(spilled.counters.snapshot()) == kept(
        reference.counters.snapshot()
    )
    assert {
        path: kept(record) for path, record in spilled.metrics.snapshot().items()
    } == {
        path: kept(record)
        for path, record in reference.metrics.snapshot().items()
    }
    assert spilled.counters.spill_runs > 0
    assert spilled.metrics.total("spilled_rows") > 0
    assert live_spill_files() == frozenset()
    return spilled


class TestDifferential:
    @pytest.mark.parametrize("sql", SORT_QUERIES)
    def test_sort_spill_is_byte_identical(self, db, sql):
        assert_spills_like_the_reference(db, sql)

    @pytest.mark.parametrize("sql", DISTINCT_QUERIES)
    def test_distinct_spill_is_byte_identical(self, db, sql):
        assert_spills_like_the_reference(db, sql)

    def test_two_holders_of_one_budget_agree_on_rows_and_work(self, db):
        assert_spills_like_the_reference(
            db, SORT_OVER_DISTINCT, drop=SPILL_FIELDS
        )

    @pytest.mark.parametrize("sql", OVER_A_JOIN)
    def test_plan_below_a_budgeted_breaker_stays_compiled(
        self, db, sql, monkeypatch
    ):
        # A memory budget picks the external algorithm inside the sort /
        # dedupe; it must not move the subtree onto the row iterators.
        pulled = []
        execute = PhysicalOperator.execute

        def recording(self, ctx):
            pulled.append(self.label())
            return execute(self, ctx)

        spilled = assert_spills_like_the_reference(db, sql)
        monkeypatch.setattr(PhysicalOperator, "execute", recording)
        again = db.sql(sql, memory_budget=BUDGET, collect_metrics=True)
        assert pulled == []
        assert again.rows == spilled.rows
        assert db.sql(sql, explain="plan").fallbacks == ()
        records = again.metrics.snapshot()
        assert any(r["op"].startswith("HashJoin") for r in records.values())
        assert {r["executions"] for r in records.values()} == {1}

    def test_sort_is_stable_under_spill(self, db):
        # Equal sort keys must keep input order; external merging via
        # run-index tiebreak preserves it. 's' has only 5 values, so
        # each key group spans many input positions.
        rows = db.sql(
            "select s, id from t order by s", memory_budget=BUDGET
        ).rows
        for (s1, id1), (s2, id2) in zip(rows, rows[1:]):
            if s1 == s2:
                assert id1 < id2

    def test_distinct_preserves_first_appearance_order(self, db):
        plain = db.sql("select distinct g, s from t").rows
        spilled = db.sql(
            "select distinct g, s from t", memory_budget=BUDGET
        ).rows
        assert spilled == plain  # not merely the same set


class TestAccounting:
    def test_cells_released_after_spilled_sort(self, db):
        governor = Governor(Budget(memory_cells=BUDGET), sql="spilled sort")
        plan = db.plan("select id, x from t order by x desc")
        result = db.execute(plan, governor=governor)
        assert len(result.rows) == 400
        assert governor.cells_in_use == 0
        assert 0 < governor.peak_cells <= BUDGET

    def test_row_wider_than_budget_raises_both_engines(self, db):
        # The compiled plan and the row-iterator reference alike.
        sql = "select id, g, x, s from t order by x"
        with pytest.raises(MemoryBudgetExceeded):
            db.sql(sql, memory_budget=2)
        with pytest.raises(MemoryBudgetExceeded):
            budgeted_reference(db, sql, budget=2)
        assert live_spill_files() == frozenset()

    def test_generous_budget_stays_in_memory(self, db):
        result = db.sql(
            "select id from t order by id desc",
            memory_budget=1 << 20,
            collect_metrics=True,
        )
        assert result.metrics.total("spilled_rows") == 0
        assert result.rows == db.sql("select id from t order by id desc").rows
