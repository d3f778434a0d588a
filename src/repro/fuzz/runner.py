"""The SQL differential check and its three profiles of the one driver.

For each seeded case :func:`run_case` runs three checks:

1. **engine sanity** — the query must execute at all, on the row
   iterators (a crash on generator-valid input is a bug, not a skip);
2. **oracle agreement** — those baseline rows must equal SQLite's for the
   lowered query, as NULL-aware normalized multisets (skipped for a
   nonfinite case: SQLite stores NaN as NULL; the summary's
   ``nonfinite-cases`` counts them);
3. **plan-space equivalence** — every planner configuration from the
   profile must reproduce the baseline rows exactly.

The summary's ``expression-aggregates`` counts the cases whose query
aggregates an expression or tests an aggregate against an IN list (see
:func:`~repro.fuzz.generator.expression_aggregates`), ``join-reordered``
the cases where some configuration's chosen plan went through the
``join_order`` pass and has a join tree other than the written one, and
``segmented-gapply`` the cases where some configuration's plan holds a
GApply whose per-group plan runs once per wave of groups
(:mod:`repro.execution.vector.segmented`) with no subtree looping per
group, and ``keyless-joins`` the cases where some configuration's plan
holds a hash join on the empty key (a cross or theta join).

``quick``, ``full`` and ``engine`` differ in the configurations of
step 3, and ``full`` and ``engine`` also draw nonfinite cases (``quick``,
the tier-1 slice, keeps every case on the oracle);
:func:`repro.fuzz.driver.sweep` does the rest (seed loop, crash
handling, shrinking with :func:`~repro.fuzz.shrink.sql_candidates`,
corpus files, report).
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from repro.errors import MemoryBudgetExceeded, ReproError
from repro.execution.base import PhysicalOperator
from repro.execution.gapply import PGApply
from repro.execution.joins import PHashJoin
from repro.execution.vector.compiler import compile_plan
from repro.fuzz.corpus import save_case
from repro.fuzz.driver import Failure, Profile
from repro.fuzz.generator import (
    FuzzCase,
    expression_aggregates,
    generate_case,
    is_nonfinite,
)
from repro.fuzz.oracle import (
    compare_multisets,
    reference_rows,
    run_oracle,
    sqlite_mirror,
)
from repro.fuzz.planspace import (
    ENGINE_PROFILE,
    FULL_PROFILE,
    QUICK_PROFILE,
    PlanConfig,
    profile_configurations,
)
from repro.fuzz.shrink import sql_candidates
from repro.optimizer.rules.join_order import join_tree
from repro.sql.sqlite import OracleUnsupportedError


def run_case(
    case: FuzzCase,
    configs: list[PlanConfig],
    tally: Counter | None = None,
) -> Failure | None:
    """Run every check on one case; first divergence wins."""
    if tally is None:
        tally = Counter()

    def failed(kind: str, detail: str, config: str | None = None) -> Failure:
        return Failure(
            case.seed, kind, f"{detail}\n  query: {case.sql}", case, config
        )

    if expression_aggregates(case.query):
        tally["expression-aggregates"] += 1
    db = case.db.build()
    sql = case.sql
    try:
        # The reference run is the row iterators: the SQLite oracle
        # anchors it, and every configuration below is held to it.
        baseline = list(reference_rows(db, sql))
    except ReproError as error:
        return failed("engine-error", f"  {type(error).__name__}: {error}")

    if is_nonfinite(case.db):
        oracle_rows = None
        tally["nonfinite-cases"] += 1
    else:
        connection = sqlite_mirror(db.catalog)
        try:
            oracle_rows = run_oracle(case.query, connection)
        except OracleUnsupportedError:
            oracle_rows = None
            tally["oracle-skipped"] += 1
        except sqlite3.Error as error:
            return failed("oracle-error", f"  sqlite3: {error}")
        finally:
            connection.close()
    if oracle_rows is not None:
        tally["oracle-checked"] += 1
        mismatch = compare_multisets(baseline, oracle_rows)
        if mismatch is not None:
            return failed("oracle", mismatch.describe())

    reordered = segmented = keyless = False
    for config in configs:
        try:
            result = db.sql(
                sql,
                planner_options=config.options,
                memory_budget=config.memory_budget,
            )
        except ReproError as error:
            if config.memory_budget is not None and isinstance(
                error, MemoryBudgetExceeded
            ):
                # Nested holders (a per-group DISTINCT under a resident
                # partition) can genuinely exhaust a small budget: a typed
                # refusal, not a divergence.
                continue
            return failed(
                "planspace-error",
                f"  {type(error).__name__}: {error}",
                config.name,
            )
        tally["plan-space-runs"] += 1
        mismatch = compare_multisets(baseline, result.rows)
        if mismatch is not None:
            return failed(
                "planspace",
                mismatch.describe("baseline", config.name),
                config.name,
            )
        report = result.optimization
        if not reordered and "join_order" in report.fired:
            reordered = join_tree(report.best) != join_tree(db.plan(sql))
        if not segmented:
            segmented = _runs_segmented(result.physical_plan)
        if not keyless:
            keyless = _has_keyless_join(result.physical_plan)
    if reordered:
        tally["join-reordered"] += 1
    if segmented:
        tally["segmented-gapply"] += 1
    if keyless:
        tally["keyless-joins"] += 1
    return None


def _runs_segmented(physical: PhysicalOperator) -> bool:
    """Some GApply of the plan runs its per-group plan once per wave with
    no looped subtree (the compiler notes each looping GApply once)."""

    def gapplys(op: PhysicalOperator) -> int:
        own = 1 if isinstance(op, PGApply) else 0
        return own + sum(gapplys(child) for child in op.children())

    return gapplys(physical) > len(compile_plan(physical).per_group_loops)


def _has_keyless_join(op: PhysicalOperator) -> bool:
    if isinstance(op, PHashJoin) and not op.left_keys:
        return True
    return any(_has_keyless_join(child) for child in op.children())


def _sql_profile(name: str) -> Profile:
    configs = profile_configurations(name)
    nonfinite = name != QUICK_PROFILE
    return Profile(
        name,
        lambda seed: generate_case(seed, nonfinite),
        lambda case, tally: run_case(case, configs, tally),
        candidates=sql_candidates,
        save=save_case,
    )


#: The plan-space profiles: same cases and checks, different configurations.
PROFILES = tuple(
    _sql_profile(name) for name in (QUICK_PROFILE, FULL_PROFILE, ENGINE_PROFILE)
)
