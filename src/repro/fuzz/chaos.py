"""The ``chaos`` and ``serve-stress`` profiles: seeded fault plans against
live GApply queries.

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

The fixture is the tiny TPC-H instance the paper queries run on
(SF=0.01), built once per process; expected rows come from the same SQL
on the row iterators (:func:`repro.fuzz.oracle.reference_rows`).

**Concurrent chaos** (:func:`serve_stress_profile`, what ``python -m
repro.serve --stress`` sweeps) extends the same invariant to the
:mod:`repro.serve` service layer: per seed, a fresh service over a
*ledger* table is hammered by many client threads issuing
a mix of reads, atomic write batches and DDL — sometimes under a fault
plan, an admission queue sized to shed, or a shutdown racing the clients.
Every ledger write is a zero-sum batch of :data:`LEDGER_BATCH` rows, so
any torn read (a snapshot exposing part of a batch) breaks an arithmetic
invariant every reader checks: ``sum(l_amount) == 0`` and
``count(*) % LEDGER_BATCH == 0`` globally, and per-batch GApply sums all
zero. The allowed outcomes are exactly correct-snapshot rows or a typed
error appropriate to the scenario (``ServiceOverloaded`` when shedding,
``ServiceStopped``/``QueryCancelled`` around shutdown, ``SpillError``
under spill faults, budget errors under budgets) — never a wrong answer,
torn read, hang, leaked spill file, or lingering client thread.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

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
        case.memory_budget = rng.choice((64, 128, 256))
        case.fault = FaultPlan(seed=seed, fail_spill_at=rng.randrange(64))
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
        case.memory_budget = rng.choice((64, 128, 512))
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


def scenario_check(
    kind: str, run: Callable[[Any], str | None]
) -> Callable[[Any, Counter], Failure | None]:
    """A profile ``check`` from a ``run(case) -> detail | None`` invariant
    runner; the tally is the scenario mix the summary prints."""

    def check(case: Any, tally: Counter) -> Failure | None:
        tally[case.scenario] += 1
        detail = run(case)
        if detail is None:
            return None
        return Failure(case.seed, kind, detail, case, config=case.scenario)

    return check


PROFILE = Profile("chaos", build_case, scenario_check("chaos", run_chaos_case))


# ----------------------------------------------------------------------
# Concurrent chaos: multi-threaded clients against a live Service
# ----------------------------------------------------------------------

#: Rows per atomic ledger write; every batch sums to zero, which is what
#: makes torn reads arithmetically visible.
LEDGER_BATCH = 4

#: Concurrent scenarios, drawn per seed.
CONCURRENT_SCENARIOS = (
    "steady",
    "overload",
    "spill-pressure",
    "faulted-spill",
    "shutdown-mid-run",
)

#: How long to wait for a client thread before calling the run a hang.
JOIN_TIMEOUT = 60.0


@dataclass
class ConcurrentChaosCase:
    """One seed's concurrent workload shape (deterministic replay)."""

    seed: int
    scenario: str
    threads: int
    ops_per_thread: int
    max_concurrency: int
    max_queue_depth: int
    fault: FaultPlan | None = None
    gapply_memory_budget: int | None = None
    shutdown_after: float | None = None

    def describe(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "threads": self.threads,
            "ops_per_thread": self.ops_per_thread,
            "max_concurrency": self.max_concurrency,
            "max_queue_depth": self.max_queue_depth,
            "fault": None if self.fault is None else self.fault.to_dict(),
            "gapply_memory_budget": self.gapply_memory_budget,
            "shutdown_after": self.shutdown_after,
        }


def build_concurrent_case(
    seed: int, threads: int = 8, ops_per_thread: int = 4
) -> ConcurrentChaosCase:
    """Deterministically derive one concurrent case from its seed."""
    rng = random.Random(seed ^ 0xC0C0)
    scenario = CONCURRENT_SCENARIOS[seed % len(CONCURRENT_SCENARIOS)]
    case = ConcurrentChaosCase(
        seed=seed,
        scenario=scenario,
        threads=threads,
        ops_per_thread=ops_per_thread,
        max_concurrency=rng.randrange(2, 5),
        max_queue_depth=rng.randrange(8, 17),
    )
    if scenario == "overload":
        case.max_concurrency = 1
        case.max_queue_depth = rng.randrange(0, 3)
    elif scenario == "spill-pressure":
        case.gapply_memory_budget = rng.choice((64, 128))
    elif scenario == "faulted-spill":
        case.gapply_memory_budget = rng.choice((64, 128))
        case.fault = FaultPlan(seed=seed, fail_spill_at=rng.randrange(32))
    elif scenario == "shutdown-mid-run":
        case.shutdown_after = rng.uniform(0.01, 0.1)
    return case


def _ledger_batch(batch_id: int, rng: random.Random) -> list[tuple]:
    a = rng.randrange(1, 1000)
    b = rng.randrange(1, 1000)
    return [
        (batch_id, 0, a),
        (batch_id, 1, -a),
        (batch_id, 2, b),
        (batch_id, 3, -b),
    ]


def _ledger_service(case: ConcurrentChaosCase):
    """A fresh service over a seeded ledger table."""
    from repro.serve import Service, ServiceConfig
    from repro.storage.types import DataType

    rng = random.Random(case.seed ^ 0x1ED6E2)
    rows: list[tuple] = []
    for batch_id in range(6):
        rows.extend(_ledger_batch(batch_id, rng))
    db = Database()
    db.create_table(
        "ledger",
        [
            ("l_batch", DataType.INTEGER),
            ("l_entry", DataType.INTEGER),
            ("l_amount", DataType.INTEGER),
        ],
        rows,
    )
    config = ServiceConfig(
        max_concurrency=case.max_concurrency,
        max_queue_depth=case.max_queue_depth,
    )
    return Service(db, config=config)


def _reader_invariant(op: str, rows: list[tuple]) -> str | None:
    """Check one read result against the zero-sum ledger invariants."""
    if op == "sum":
        total = rows[0][0] or 0
        if total != 0:
            return f"torn read: sum(l_amount) == {total}, expected 0"
    elif op == "count":
        count = rows[0][0]
        if count % LEDGER_BATCH != 0:
            return (
                f"torn read: count(*) == {count}, not a multiple of "
                f"{LEDGER_BATCH}"
            )
    elif op == "gapply":
        bad = [row for row in rows if (row[-1] or 0) != 0]
        if bad:
            return f"torn read: nonzero per-batch sums {bad[:3]}"
    return None


def _run_concurrent_case(case: ConcurrentChaosCase) -> str | None:
    """Run one concurrent case; None when every invariant held."""
    import threading

    from repro.errors import (
        ServiceOverloaded,
        ServiceStopped,
    )
    from repro.storage.spill import live_spill_files
    from repro.storage.types import DataType

    service = _ledger_service(case)
    failures: list[str] = []
    failures_lock = threading.Lock()
    writes_done = [0] * case.threads
    next_batch = [1000]  # client batch ids start above the seeded ones

    def fail(detail: str) -> None:
        with failures_lock:
            failures.append(detail)

    read_allowed: tuple[type, ...] = (
        ServiceOverloaded,
        ServiceStopped,
        TimeoutExceeded,
        QueryCancelled,
    )
    if case.fault is not None:
        read_allowed += (SpillError,)
    if case.gapply_memory_budget is not None:
        read_allowed += (MemoryBudgetExceeded,)
    write_allowed: tuple[type, ...] = (ServiceStopped,)

    def run_read(tid: int, rng: random.Random) -> None:
        op = rng.choice(("sum", "count", "gapply", "gapply"))
        kwargs: dict[str, Any] = {"timeout": 30.0}
        if op == "sum":
            sql = "select sum(l_amount) from ledger"
        elif op == "count":
            sql = "select count(*) from ledger"
        else:
            sql = (
                "select gapply(select sum(l_amount) from g) as (total) "
                "from ledger group by l_batch : g"
            )
            # Under spill pressure, exercise the concurrent spill path;
            # keep GApply un-rewritten so the budget actually reaches the
            # partition phase.
            kwargs["planner_options"] = _BOUND_PLAN
            if case.gapply_memory_budget is not None:
                kwargs["memory_budget"] = case.gapply_memory_budget
        if rng.random() < 0.3:
            kwargs["query_class"] = "batch"
        try:
            result = service.sql(sql, **kwargs)
        except read_allowed:
            return
        detail = _reader_invariant(op, list(result.rows))
        if detail is not None:
            fail(f"thread {tid}: {detail}")

    def run_write(tid: int, rng: random.Random) -> None:
        with failures_lock:
            batch_id = next_batch[0]
            next_batch[0] += 1
        try:
            service.insert("ledger", _ledger_batch(batch_id, rng))
        except write_allowed:
            return
        writes_done[tid] += 1

    def run_ddl(tid: int, rng: random.Random) -> None:
        name = f"scratch_{case.seed}_{tid}_{rng.randrange(1 << 30)}"
        try:
            service.create_table(
                name, [("v", DataType.INTEGER)], [(1,), (2,)]
            )
            rows = list(service.sql(f"select count(*) from {name}").rows)
            service.drop_table(name)
        except read_allowed + write_allowed:
            return
        if rows != [(2,)]:
            fail(f"thread {tid}: scratch table read {rows}, expected [(2,)]")

    def client(tid: int) -> None:
        rng = random.Random((case.seed << 8) ^ tid)
        try:
            for _ in range(case.ops_per_thread):
                roll = rng.random()
                if roll < 0.55:
                    run_read(tid, rng)
                elif roll < 0.85:
                    run_write(tid, rng)
                else:
                    run_ddl(tid, rng)
        except ReproError as error:
            fail(
                f"thread {tid}: unexpected typed error "
                f"{type(error).__name__}: {error}"
            )
        except Exception as error:  # noqa: BLE001 - the invariant
            fail(
                f"thread {tid}: untyped error escaped: "
                f"{type(error).__name__}: {error}"
            )

    spill_files_before = live_spill_files()
    workers = [
        threading.Thread(
            target=client, args=(tid,), name=f"chaos-client-{tid}"
        )
        for tid in range(case.threads)
    ]

    def drive() -> None:
        for worker in workers:
            worker.start()
        if case.shutdown_after is not None:
            time.sleep(case.shutdown_after)
            report = service.shutdown(drain_timeout=1.0)
            if not report.clean:
                fail(f"shutdown leaked {report.leaked} queries")
        for worker in workers:
            worker.join(JOIN_TIMEOUT)
            if worker.is_alive():
                fail(f"hang: {worker.name} still running")
                return

    if case.fault is not None:
        with fault_injection(case.fault):
            drive()
    else:
        drive()
    if failures:
        return "; ".join(failures[:3])

    report = service.shutdown(drain_timeout=5.0)
    if not report.clean:
        return f"shutdown leaked {report.leaked} queries"

    # Post-mortem on the raw database: global invariants plus accounting.
    final = list(
        service.database.sql(
            "select count(*), sum(l_amount) from ledger"
        ).rows
    )
    count, total = final[0]
    if (total or 0) != 0:
        return f"final ledger sum {total} != 0"
    expected_rows = LEDGER_BATCH * (6 + sum(writes_done))
    if count != expected_rows:
        return (
            f"lost or duplicated writes: {count} rows, expected "
            f"{expected_rows} (6 seeded + {sum(writes_done)} client batches)"
        )
    leaked_spills = live_spill_files() - spill_files_before
    if leaked_spills:
        return f"leaked spill files: {sorted(leaked_spills)[:3]}"
    stats = service.stats()
    if stats["active"] != 0 or stats["slots_free"] != stats["slots"]:
        return f"admission accounting corrupt after drain: {stats}"
    return None


def serve_stress_profile(threads: int = 8, ops_per_thread: int = 4) -> Profile:
    """The concurrent sweep (module docstring has the invariant): each
    seed gets a fresh service and ``threads`` clients; failures carry the
    full case shape for replay."""
    return Profile(
        "serve-stress",
        lambda seed: build_concurrent_case(seed, threads, ops_per_thread),
        scenario_check("serve-stress", _run_concurrent_case),
    )
