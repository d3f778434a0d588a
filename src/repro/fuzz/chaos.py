"""The ``chaos`` profile: seeded fault plans against live GApply queries.

The differential profiles (:mod:`repro.fuzz.runner`) check the engine
against a SQLite oracle on *clean* runs. Chaos checks the other half
of the robustness contract: under injected faults — failing spill
writes — and under adversarial budgets, every query must end in one of
exactly two ways:

* the **correct rows** (identical to an unfaulted run), or
* a **typed error** from :mod:`repro.errors` that the scenario allows.

Never a wrong answer, never a hang, never a bare ``RuntimeError``. Each
seed deterministically picks a scenario, a fault plan and budget knobs,
so a failing seed replays exactly.

Scenarios (one per case, chosen by the seed):

==================  ======================================================
``timeout``         a 5-50 ms wall-clock budget, no fault;
                    the query beats the clock (correct rows) or raises
                    ``TimeoutExceeded``/``QueryCancelled``
``spill-fail``      a memory budget forces the partition phase to spill
                    and the Nth spill write fails; correct rows (fault
                    landed past the last write) or ``SpillError``
``memory-budget``   a sort-carrying query under a random cell budget;
                    correct rows (sorts and DISTINCT spill to disk) or
                    ``MemoryBudgetExceeded`` from a hash build
``row-budget``      a random ``max_rows``; correct rows when under, else
                    ``RowBudgetExceeded``
``clean-spill``     a memory budget small enough to force spilling, no
                    faults; must be byte-identical to the in-memory run
==================  ======================================================

``spill-fail`` and ``clean-spill`` sometimes draw :data:`MERGE_BUDGET`,
which spills more than ``FAN_IN`` runs: a merge pass runs and a failing
write can land inside it (the summary's ``merged-cases=N``).

The fixture is the tiny TPC-H instance the paper queries run on
(SF=0.01), built once per process; expected rows come from the same SQL
on the row iterators (:func:`repro.fuzz.oracle.reference_rows`).

The concurrent half — many clients against a live
:class:`~repro.serve.Service` — is the ``serve-stress`` profile of
:mod:`repro.fuzz.service`, beside the service contract's model.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.api import Database
from repro.errors import (
    MemoryBudgetExceeded,
    QueryCancelled,
    ReproError,
    RowBudgetExceeded,
    SpillError,
    TimeoutExceeded,
)
from repro.execution.faults import FaultPlan, fault_injection
from repro.fuzz.driver import Failure, Profile
from repro.fuzz.oracle import reference_rows
from repro.optimizer.planner import PlannerOptions
from repro.optimizer.rules import DEFAULT_RULES
from repro.storage.spill import FAN_IN
from repro.workloads.queries import Q1
from repro.workloads.tpch import TpchConfig, load_tpch

#: Scenario names, in the order the seed's RNG draws from.
SCENARIOS = (
    "timeout",
    "spill-fail",
    "memory-budget",
    "row-budget",
    "clean-spill",
)

#: Every rule disabled, so a run executes the bound plan as written:
#: GApply survives to execution for faults and spills to bite, where the
#: optimizer might otherwise rewrite it into a plain aggregate.
_BOUND_PLAN = PlannerOptions(disabled_rules=tuple(rule.name for rule in DEFAULT_RULES))

#: A cell budget just over one row of Q1's partition input (14 cells):
#: every row but the last is a run of its own, more than ``FAN_IN``.
MERGE_BUDGET = 16


@dataclass
class ChaosFixture:
    """The shared database plus precomputed clean-run answers."""

    db: Database
    gapply_sql: str
    baseline_sql: str
    gapply_rows: list[tuple]
    baseline_rows: list[tuple]


_fixture: ChaosFixture | None = None


def chaos_fixture() -> ChaosFixture:
    """Build (once) the tiny TPC-H database and the expected rows."""
    global _fixture
    if _fixture is None:
        db = Database()
        load_tpch(db.catalog, TpchConfig())
        gapply_rows = list(reference_rows(db, Q1.gapply_sql))
        baseline_rows = list(reference_rows(db, Q1.baseline_sql))
        _fixture = ChaosFixture(
            db=db,
            gapply_sql=Q1.gapply_sql,
            baseline_sql=Q1.baseline_sql,
            gapply_rows=gapply_rows,
            baseline_rows=baseline_rows,
        )
    return _fixture


@dataclass
class ChaosCase:
    """Everything one seed decided: replaying the seed rebuilds it."""

    seed: int
    scenario: str
    sql: str
    expected: list[tuple]
    fault: FaultPlan | None = None
    timeout: float | None = None
    memory_budget: int | None = None
    max_rows: int | None = None
    #: Error types that count as a correct outcome for this scenario.
    allowed_errors: tuple[type, ...] = ()
    #: Must the run end in correct rows (no error tolerated)?
    must_succeed: bool = True

    def describe(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "timeout": self.timeout,
            "memory_budget": self.memory_budget,
            "max_rows": self.max_rows,
            "fault": None if self.fault is None else self.fault.to_dict(),
            "allowed_errors": [e.__name__ for e in self.allowed_errors],
        }


def build_case(seed: int) -> ChaosCase:
    """Deterministically derive one chaos case from its seed."""
    fixture = chaos_fixture()
    rng = random.Random(seed)
    scenario = rng.choice(SCENARIOS)
    sql = fixture.gapply_sql
    expected = fixture.gapply_rows
    case = ChaosCase(seed=seed, scenario=scenario, sql=sql, expected=expected)

    if scenario == "timeout":
        case.timeout = rng.uniform(0.005, 0.05)
        case.allowed_errors = (TimeoutExceeded, QueryCancelled)
        case.must_succeed = False
    elif scenario == "spill-fail":
        case.memory_budget = rng.choice((MERGE_BUDGET, 64, 128, 256))
        # Under MERGE_BUDGET writes 0..FAN_IN-1 are one-row runs and the
        # next FAN_IN the first merge pass: either may fail.
        writes = 2 * FAN_IN if case.memory_budget == MERGE_BUDGET else 64
        case.fault = FaultPlan(seed=seed, fail_spill_at=rng.randrange(writes))
        case.allowed_errors = (SpillError,)
        case.must_succeed = False
    elif scenario == "memory-budget":
        # The baseline formulation carries an ORDER BY: under a small
        # budget the sort spills to disk (still correct rows) while a
        # hash join/aggregate build may raise — never a wrong answer.
        case.sql = fixture.baseline_sql
        case.expected = fixture.baseline_rows
        case.memory_budget = rng.choice((32, 256, 4096, 1 << 20))
        case.allowed_errors = (MemoryBudgetExceeded,)
        case.must_succeed = False
    elif scenario == "row-budget":
        case.max_rows = rng.randrange(0, len(expected) + 5)
        if case.max_rows < len(expected):
            case.allowed_errors = (RowBudgetExceeded,)
            case.must_succeed = False
    elif scenario == "clean-spill":
        case.memory_budget = rng.choice((MERGE_BUDGET, 64, 128, 512))
    return case


def run_chaos_case(case: ChaosCase) -> str | None:
    """Run one case; return None when the invariant held, else a detail
    string describing how it broke."""
    fixture = chaos_fixture()
    kwargs: dict[str, Any] = {
        "timeout": case.timeout,
        "memory_budget": case.memory_budget,
        "max_rows": case.max_rows,
        "planner_options": _BOUND_PLAN,
    }
    try:
        if case.fault is not None:
            with fault_injection(case.fault):
                result = fixture.db.sql(case.sql, **kwargs)
        else:
            result = fixture.db.sql(case.sql, **kwargs)
    except ReproError as error:
        if isinstance(error, case.allowed_errors):
            return None
        return (
            f"unexpected typed error {type(error).__name__}: {error} "
            f"(allowed: {[e.__name__ for e in case.allowed_errors]})"
        )
    except Exception as error:  # noqa: BLE001 - the invariant under test
        return f"untyped error escaped: {type(error).__name__}: {error}"
    if list(result.rows) != case.expected:
        return (
            f"wrong answer: {len(result.rows)} rows != "
            f"{len(case.expected)} expected"
        )
    return None


@functools.lru_cache(maxsize=None)
def _clean_spill_runs(memory_budget: int) -> int:
    """``spill_runs`` of the unfaulted GApply query under the budget."""
    fixture = chaos_fixture()
    result = fixture.db.sql(
        fixture.gapply_sql, memory_budget=memory_budget, planner_options=_BOUND_PLAN
    )
    return result.counters.spill_runs


def _check(case: ChaosCase, tally: Counter) -> Failure | None:
    """Run one case; the tally is the scenario mix plus ``merged-cases``."""
    tally[case.scenario] += 1
    if case.scenario in ("spill-fail", "clean-spill"):
        if _clean_spill_runs(case.memory_budget) > FAN_IN:
            tally["merged-cases"] += 1
    detail = run_chaos_case(case)
    if detail is None:
        return None
    return Failure(case.seed, "chaos", detail, case, config=case.scenario)


PROFILE = Profile("chaos", build_case, _check)
