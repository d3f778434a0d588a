"""Fault injection.

The contract: an armed spill-write fault surfaces as a typed
:class:`SpillError` (never a wrong answer), a fault that never fires
changes nothing, and all of it is deterministic under a seeded
:class:`FaultPlan`."""

from __future__ import annotations

import random

import pytest

from repro.api import Database
from repro.errors import SpillError
from repro.execution.faults import (
    INJECTION_POINTS,
    FaultPlan,
    active_plan,
    fault_injection,
    install_plan,
)
from repro.storage.types import DataType
from tests.conftest import ALL_RULES_OFF

GAPPLY_SQL = (
    "select gapply(select count(*) as n from g) from t group by g : g"
)


@pytest.fixture
def db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("g", DataType.INTEGER), ("v", DataType.FLOAT)],
        [(i % 8, float(i)) for i in range(200)],
    )
    return db


class TestFaultPlan:
    def test_from_seed_is_deterministic(self):
        assert FaultPlan.from_seed(42) == FaultPlan.from_seed(42)

    def test_from_seed_arms_the_one_injection_point(self):
        assert INJECTION_POINTS == ("spill-write",)
        assert all(
            FaultPlan.from_seed(seed).fail_spill_at is not None
            for seed in range(60)
        )

    def test_to_dict_round_trips(self):
        plan = FaultPlan.from_seed(7)
        assert FaultPlan(**plan.to_dict()) == plan

    def test_context_manager_restores_previous(self):
        outer = FaultPlan(seed=1, fail_spill_at=0)
        inner = FaultPlan(seed=2, fail_spill_at=1)
        install_plan(None)
        with fault_injection(outer):
            with fault_injection(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None


class TestSpillFaults:
    def test_failing_spill_write_raises_typed_error(self, db):
        with fault_injection(FaultPlan(seed=4, fail_spill_at=0)):
            with pytest.raises(SpillError, match="injected"):
                db.sql(GAPPLY_SQL, planner_options=ALL_RULES_OFF, memory_budget=64)

    def test_fault_past_the_last_write_is_harmless(self, db):
        plain = db.sql(GAPPLY_SQL, planner_options=ALL_RULES_OFF)
        with fault_injection(FaultPlan(seed=5, fail_spill_at=10_000_000)):
            result = db.sql(GAPPLY_SQL, planner_options=ALL_RULES_OFF, memory_budget=64)
        assert result.rows == plain.rows


class TestChaosDeterminism:
    def test_same_seed_same_outcome(self, db):
        # The harness promise chaos mode relies on: a seed fully
        # determines the fault, so a failing seed replays.
        seed = random.Random(0).randrange(1 << 30)
        outcomes = []
        for _ in range(2):
            with fault_injection(FaultPlan.from_seed(seed)):
                try:
                    rows = db.sql(GAPPLY_SQL, planner_options=ALL_RULES_OFF,
                                  memory_budget=128).rows
                    outcomes.append(("rows", rows))
                except SpillError:
                    outcomes.append(("spill-error", None))
        assert outcomes[0] == outcomes[1]
