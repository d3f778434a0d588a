"""The SQL differential check and its three profiles of the one driver.

For each seeded case :func:`run_case` runs three checks:

1. **engine sanity** — the query must execute at all, on the row
   iterators (a crash on generator-valid input is a bug, not a skip);
2. **oracle agreement** — those baseline rows must equal SQLite's for the
   lowered query, as NULL-aware normalized multisets;
3. **plan-space equivalence** — every planner configuration from the
   profile must reproduce the baseline rows exactly.

``quick``, ``full`` and ``engine`` differ only in the configurations of
step 3; :func:`repro.fuzz.driver.sweep` does the rest (seed loop, crash
handling, shrinking with :func:`~repro.fuzz.shrink.sql_candidates`,
corpus files, report).
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from repro.errors import MemoryBudgetExceeded, ReproError
from repro.fuzz.corpus import save_case
from repro.fuzz.driver import Failure, Profile
from repro.fuzz.generator import FuzzCase, generate_case
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

    db = case.db.build()
    sql = case.sql
    try:
        # The reference run is the row iterators: the SQLite oracle
        # anchors it, and every configuration below is held to it.
        baseline = list(reference_rows(db, sql))
    except ReproError as error:
        return failed("engine-error", f"  {type(error).__name__}: {error}")

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

    for config in configs:
        try:
            rows = db.sql(
                sql,
                optimize=config.optimize,
                planner_options=config.options,
                memory_budget=config.memory_budget,
            ).rows
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
        mismatch = compare_multisets(baseline, rows)
        if mismatch is not None:
            return failed(
                "planspace",
                mismatch.describe("baseline", config.name),
                config.name,
            )
    return None


def _sql_profile(name: str) -> Profile:
    configs = profile_configurations(name)
    return Profile(
        name,
        generate_case,
        lambda case, tally: run_case(case, configs, tally),
        candidates=sql_candidates,
        save=save_case,
    )


#: The plan-space profiles: same cases and checks, different configurations.
PROFILES = tuple(
    _sql_profile(name) for name in (QUICK_PROFILE, FULL_PROFILE, ENGINE_PROFILE)
)
