"""Resource governor tests: budgets, cancellation, and the contract that
the same violation raises the same typed error whether the plan's root
is a compiled batch node or a subtree left on the row iterators."""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import (
    BudgetExceeded,
    MemoryBudgetExceeded,
    PlanError,
    QueryCancelled,
    RowBudgetExceeded,
    TimeoutExceeded,
)
from repro.execution.governor import CHECK_STRIDE, Budget, Governor
from repro.storage.types import DataType

GAPPLY_SQL = (
    "select gapply(select count(*) as n from g) from t group by g : g"
)

#: A plan per kind of root: ``vector`` compiles completely; ``volcano``
#: is rooted in a nested-loop join, which the compiler leaves on the row
#: iterators, so the root loop is fed by ``PhysicalOperator.execute``.
ROOT_SQL = {
    "vector": GAPPLY_SQL,
    "volcano": (
        "select * from t a, t b where a.v < b.v and a.g = 0 and b.g = 0"
    ),
}


@pytest.fixture
def db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("g", DataType.INTEGER), ("v", DataType.FLOAT)],
        [(i % 8, float(i)) for i in range(400)],
    )
    return db


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestBudgetValidation:
    def test_defaults_are_unlimited(self):
        assert Budget().unlimited

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"memory_cells": 0},
            {"max_rows": -1},
        ],
    )
    def test_bad_values_raise_plan_error(self, kwargs):
        with pytest.raises(PlanError):
            Budget(**kwargs)


class TestGovernorUnit:
    def test_timeout_uses_injected_clock(self):
        clock = FakeClock()
        governor = Governor(Budget(timeout=5.0), clock=clock)
        governor.check()  # within budget
        clock.now = 5.1
        with pytest.raises(TimeoutExceeded):
            governor.check()

    def test_tick_checks_only_on_the_stride(self):
        clock = FakeClock()
        governor = Governor(Budget(timeout=1.0), clock=clock)
        clock.now = 2.0  # already expired — but ticks below stride pass
        governor.tick(CHECK_STRIDE - 1)
        with pytest.raises(TimeoutExceeded):
            governor.tick(1)

    def test_cancel_observed_at_check(self):
        governor = Governor()
        governor.cancel("user hit ^C")
        with pytest.raises(QueryCancelled, match="user hit"):
            governor.check()

    def test_cell_accounting_and_peak(self):
        governor = Governor(Budget(memory_cells=100))
        governor.charge_cells(60)
        governor.release_cells(30)
        governor.charge_cells(60)  # 90 in use, still under
        assert governor.cells_in_use == 90
        assert governor.peak_cells == 90
        with pytest.raises(MemoryBudgetExceeded):
            governor.charge_cells(11)

    def test_output_budget(self):
        governor = Governor(Budget(max_rows=2))
        governor.tick_output(2)
        with pytest.raises(RowBudgetExceeded):
            governor.tick_output(1)

    def test_spill_threshold_is_the_memory_budget(self):
        assert Governor(Budget(memory_cells=64)).spill_threshold() == 64
        assert Governor().spill_threshold() is None

    def test_budget_errors_are_typed(self):
        for exc in (TimeoutExceeded, MemoryBudgetExceeded, RowBudgetExceeded):
            assert issubclass(exc, BudgetExceeded)


@pytest.mark.parametrize("root", ROOT_SQL)
class TestBudgetsAcrossEngines:
    """Identical typed errors from a compiled root and a row-iterator one."""

    def test_roots_are_what_they_claim(self, db, root):
        notes = db.sql(ROOT_SQL[root], explain="plan").fallbacks
        assert [note.reason for note in notes] == (
            ["nested-loop join"] if root == "volcano" else []
        )

    def test_max_rows_raises_row_budget(self, db, root):
        with pytest.raises(RowBudgetExceeded) as info:
            db.sql(ROOT_SQL[root], max_rows=3)
        assert info.value.sql == ROOT_SQL[root]

    def test_expired_timeout_raises_typed_error(self, db, root):
        with pytest.raises(TimeoutExceeded) as info:
            db.sql(ROOT_SQL[root], timeout=1e-9)
        assert info.value.sql == ROOT_SQL[root]

    def test_generous_budgets_change_nothing(self, db, root):
        plain = db.sql(ROOT_SQL[root])
        budgeted = db.sql(
            ROOT_SQL[root],
            timeout=3600.0,
            memory_budget=1 << 30,
            max_rows=1 << 30,
        )
        assert budgeted.rows == plain.rows
        assert budgeted.counters.snapshot() == plain.counters.snapshot()


class TestGovernorThroughApi:
    def test_precancelled_governor_raises_query_cancelled(self, db):
        governor = Governor()
        governor.cancel("shed load")
        with pytest.raises(QueryCancelled):
            db.execute(db.plan("select v from t order by v"),
                       governor=governor)

    def test_prebuilt_governor_is_adopted_not_rewritten(self, db):
        # A governor held across calls must not keep one statement's text.
        governor = Governor(Budget(max_rows=3))
        db.sql("select count(*) from t", governor=governor)
        assert governor.sql is None
        with pytest.raises(RowBudgetExceeded) as info:
            db.sql("select v from t", governor=governor)
        assert info.value.sql == "select v from t"

    def test_governor_and_knobs_are_mutually_exclusive(self, db):
        with pytest.raises(PlanError):
            db.execute(db.plan("select v from t"),
                       governor=Governor(), max_rows=5)

    def test_sort_under_memory_budget_spills(self, db):
        # PSort spills to sorted runs under a cell budget (DESIGN §10.2):
        # a budget far below the 400-row input must still produce exactly
        # the unbudgeted rows, with the spill visible in the counters.
        sql = "select v from t order by v"
        plain = db.sql(sql)
        budgeted = db.sql(sql, memory_budget=16, collect_metrics=True)
        assert budgeted.rows == plain.rows
        assert budgeted.metrics.total("spilled_rows") > 0

    def test_sort_row_wider_than_budget_still_raises(self, db):
        # Spilling frees the buffer, not the row: a budget smaller than
        # one row's width can never make progress and must raise.
        with pytest.raises(MemoryBudgetExceeded) as info:
            db.sql("select g, v from t order by v", memory_budget=1)
        assert info.value.sql == "select g, v from t order by v"

    def test_memory_budget_makes_gapply_spill_not_fail(self, db):
        plain = db.sql(GAPPLY_SQL, optimize=False)
        budgeted = db.sql(
            GAPPLY_SQL, optimize=False, memory_budget=64,
            collect_metrics=True,
        )
        assert budgeted.rows == plain.rows
        assert budgeted.metrics.total("spilled_rows") > 0

    def test_row_budget_counts_only_root_rows(self, db):
        # 8 groups -> 8 output rows; interior operators see 400. A root
        # budget of 8 must pass even though the pipeline moved far more.
        result = db.sql(GAPPLY_SQL, max_rows=8)
        assert len(result.rows) == 8
