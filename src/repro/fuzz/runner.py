"""The differential fuzz loop: generate, execute, compare, shrink.

For each seeded case this runs three checks:

1. **engine sanity** — the query must execute at all, on the row
   iterators (a crash on generator-valid input is a bug, not a skip);
2. **oracle agreement** — those baseline rows must equal SQLite's for the
   lowered query, as NULL-aware normalized multisets;
3. **plan-space equivalence** — every planner configuration from the
   profile must reproduce the baseline rows exactly.

Failures are shrunk (:mod:`repro.fuzz.shrink`) against a predicate that
re-runs the whole differential check and demands the *same failure kind*,
then optionally persisted to the corpus.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import MemoryBudgetExceeded, ReproError
from repro.fuzz.corpus import save_case
from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.oracle import (
    compare_multisets,
    reference_rows,
    run_oracle,
    sqlite_mirror,
)
from repro.fuzz.planspace import PlanConfig, profile_configurations
from repro.fuzz.shrink import shrink_case
from repro.sql.sqlite import OracleUnsupportedError


@dataclass(frozen=True)
class FuzzFailure:
    """One divergence, with everything needed to reproduce it."""

    kind: str  # "engine-error" | "oracle" | "oracle-error" | "planspace" | ...
    config: str | None
    detail: str
    case: FuzzCase

    def describe(self) -> str:
        where = f" [{self.config}]" if self.config else ""
        return (
            f"{self.kind}{where} (seed {self.case.seed})\n"
            f"  query: {self.case.sql}\n{self.detail}"
        )


@dataclass
class FuzzReport:
    cases: int = 0
    oracle_checked: int = 0
    oracle_skipped: int = 0
    config_runs: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [
            f"{self.cases} cases, {self.oracle_checked} oracle comparisons "
            f"({self.oracle_skipped} skipped), {self.config_runs} plan-space runs, "
            f"{len(self.failures)} failures"
        ]
        for failure in self.failures:
            lines.append(failure.describe())
        for path in self.corpus_paths:
            lines.append(f"reproducer written: {path}")
        return "\n".join(lines)


def run_case(
    case: FuzzCase,
    configs: list[PlanConfig],
    report: FuzzReport | None = None,
) -> FuzzFailure | None:
    """Run every check on one case; first divergence wins."""
    db = case.db.build()
    sql = case.sql
    try:
        # The reference run is the row iterators: the SQLite oracle
        # anchors it, and every configuration below is held to it.
        baseline = list(reference_rows(db, sql))
    except ReproError as error:
        return FuzzFailure(
            "engine-error", None, f"  {type(error).__name__}: {error}", case
        )

    connection = sqlite_mirror(db.catalog)
    try:
        oracle_rows = run_oracle(case.query, connection)
    except OracleUnsupportedError:
        oracle_rows = None
        if report is not None:
            report.oracle_skipped += 1
    except sqlite3.Error as error:
        return FuzzFailure(
            "oracle-error", None, f"  sqlite3: {error}", case
        )
    finally:
        connection.close()
    if oracle_rows is not None:
        if report is not None:
            report.oracle_checked += 1
        mismatch = compare_multisets(baseline, oracle_rows)
        if mismatch is not None:
            return FuzzFailure("oracle", None, mismatch.describe(), case)

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
            return FuzzFailure(
                "planspace-error",
                config.name,
                f"  {type(error).__name__}: {error}",
                case,
            )
        if report is not None:
            report.config_runs += 1
        mismatch = compare_multisets(baseline, rows)
        if mismatch is not None:
            return FuzzFailure(
                "planspace",
                config.name,
                mismatch.describe("baseline", config.name),
                case,
            )
    return None


def _case_metrics(failure: FuzzFailure) -> dict | None:
    """Per-operator metrics snapshot of the minimized reproducer's default
    execution — diagnostic context attached to the saved corpus case.

    Best-effort: error-kind failures cannot execute at all, and a metrics
    failure must never mask the bug being persisted.
    """
    try:
        result = failure.case.db.build().sql(
            failure.case.sql, collect_metrics=True
        )
        return result.metrics.snapshot()
    except Exception:
        return None


def _signature(failure: FuzzFailure) -> tuple[str, str | None, str]:
    """What shrinking must preserve: kind, config, and — for error kinds —
    the error type, so minimization cannot morph one bug into another."""
    error_type = ""
    if failure.kind.endswith("error"):
        error_type = failure.detail.strip().split(":")[0]
    return (failure.kind, failure.config, error_type)


def run_fuzz(
    seed: int,
    n: int,
    profile: str = "quick",
    shrink: bool = True,
    corpus_dir: Path | str | None = None,
    stop_after: int = 5,
    progress=None,
) -> FuzzReport:
    """Fuzz ``n`` seeded cases starting at ``seed``.

    Divergent cases are shrunk and (when ``corpus_dir`` is set) persisted;
    fuzzing stops early after ``stop_after`` distinct failures.
    """
    configs = profile_configurations(profile)
    report = FuzzReport()
    for index in range(n):
        case = generate_case(seed + index)
        report.cases += 1
        failure = run_case(case, configs, report)
        if failure is None:
            if progress is not None and (index + 1) % 50 == 0:
                progress(f"{index + 1}/{n} cases, no divergence")
            continue
        if shrink:
            wanted = _signature(failure)

            def still_fails(candidate: FuzzCase) -> bool:
                result = run_case(candidate, configs)
                return result is not None and _signature(result) == wanted

            small = shrink_case(case, still_fails)
            final = run_case(small, configs) or failure
        else:
            final = failure
        report.failures.append(final)
        if corpus_dir is not None:
            report.corpus_paths.append(
                save_case(
                    final.case,
                    final.kind,
                    final.detail,
                    corpus_dir,
                    config=final.config,
                    metrics=_case_metrics(final),
                )
            )
        if len(report.failures) >= stop_after:
            break
    return report
