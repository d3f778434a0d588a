"""External-merge spill for ORDER BY and DISTINCT (DESIGN.md §10.2).

The contract mirrors GApply's partition spill: under a governor cell
budget, ``PSort`` and ``PDistinct`` spill sorted runs to disk and
stream a stable merge — producing rows *byte-identical* to the
unbudgeted in-memory path (including DESC directions, NULLs, duplicate
keys, and DISTINCT's first-appearance order), releasing every charged
cell, and leaking no spill files. A budget smaller than a single row
still raises the typed error: spilling frees the buffer, not the row.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import MemoryBudgetExceeded
from repro.optimizer.planner import ENGINES
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
    "select distinct s, x from t order by s, x",
]


class TestDifferential:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sql", SORT_QUERIES)
    def test_sort_spill_is_byte_identical(self, db, engine, sql):
        plain = db.sql(sql, engine=engine)
        spilled = db.sql(
            sql, engine=engine, memory_budget=BUDGET, collect_metrics=True
        )
        assert spilled.rows == plain.rows
        assert spilled.metrics.total("spilled_rows") > 0
        assert spilled.metrics.total("spill_runs") > 0
        assert live_spill_files() == frozenset()

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("sql", DISTINCT_QUERIES)
    def test_distinct_spill_is_byte_identical(self, db, engine, sql):
        plain = db.sql(sql, engine=engine)
        spilled = db.sql(
            sql, engine=engine, memory_budget=BUDGET, collect_metrics=True
        )
        assert spilled.rows == plain.rows
        assert spilled.metrics.total("spilled_rows") > 0
        assert live_spill_files() == frozenset()

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
        from repro.execution.governor import Budget, Governor

        governor = Governor(Budget(memory_cells=BUDGET), sql="spilled sort")
        plan = db.plan("select id, x from t order by x desc")
        result = db.execute(plan, governor=governor)
        assert len(result.rows) == 400
        assert governor.cells_in_use == 0
        assert 0 < governor.peak_cells <= BUDGET

    def test_row_wider_than_budget_raises_both_engines(self, db):
        for engine in ENGINES:
            with pytest.raises(MemoryBudgetExceeded):
                db.sql(
                    "select id, g, x, s from t order by x",
                    engine=engine,
                    memory_budget=2,
                )
        assert live_spill_files() == frozenset()

    def test_generous_budget_stays_in_memory(self, db):
        result = db.sql(
            "select id from t order by id desc",
            memory_budget=1 << 20,
            collect_metrics=True,
        )
        assert result.metrics.total("spilled_rows") == 0
        assert result.rows == db.sql("select id from t order by id desc").rows
