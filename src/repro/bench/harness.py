"""Measurement utilities shared by all experiments.

The paper measures elapsed and CPU time on a cold buffer pool, averaging
repeated runs. A Python interpreter has neither a buffer pool nor stable
microsecond timings, so the harness reports two numbers per plan:

* ``elapsed`` — best-of-N wall-clock seconds for executing the *physical*
  plan (planning and optimization excluded, matching the paper's
  server-side execution times);
* ``work`` — the executor's deterministic work-unit counter
  (:attr:`~repro.execution.context.Counters.total_work`), a noise-free
  cost proxy that the EXPERIMENTS.md tables quote alongside time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from repro.algebra.operators import LogicalOperator
from repro.execution.base import PhysicalOperator
from repro.execution.context import Counters, ExecutionContext
from repro.execution.vector.compiler import compile_plan
from repro.optimizer.engine import Optimizer, apply_rule_once
from repro.optimizer.planner import Planner, PlannerOptions
from repro.optimizer.rules import DEFAULT_RULES, Rule
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.workloads.tpch import TpchConfig, load_tpch

DEFAULT_REPETITIONS = 3


@dataclass(frozen=True)
class Measurement:
    """One measured plan execution."""

    elapsed: float
    work: int
    rows: int
    scan_rows: int = 0  # base-table rows read (redundant-join indicator)
    peak_rows: int = 0  # peak rows buffered by partitioning (memory proxy)
    cells: int = 0      # cells written to partition/sort/hash buffers
    #: Experiment-specific figures beyond the fixed fields (the service
    #: and XML-publishing experiments fill it); None elsewhere.
    metrics: dict | None = None

    def ratio_to(self, other: "Measurement") -> float:
        """self/other elapsed-time ratio (``other`` is the faster plan)."""
        if other.elapsed == 0:
            return float("inf")
        return self.elapsed / other.elapsed

    def work_ratio_to(self, other: "Measurement") -> float:
        if other.work == 0:
            return float("inf")
        return self.work / other.work

    def to_dict(self) -> dict:
        """The JSON measurement record (see :func:`write_measurements_json`)."""
        record = {
            "elapsed": self.elapsed,
            "work": self.work,
            "rows": self.rows,
            "scan_rows": self.scan_rows,
            "peak_rows": self.peak_rows,
            "cells": self.cells,
        }
        if self.metrics is not None:
            record["metrics"] = self.metrics
        return record


def measure_physical(
    plan: PhysicalOperator,
    repetitions: int = DEFAULT_REPETITIONS,
) -> Measurement:
    """Best-of-N execution of a physical plan, compiled as
    :meth:`Database.sql <repro.api.Database.sql>` compiles it.

    Compilation happens *outside* the timed region — like planning and
    lowering, it is a once-per-plan cost, and ``elapsed`` measures
    execution alone.
    """
    compiled = compile_plan(plan)
    best = float("inf")
    counters = Counters()
    rows = 0
    for _ in range(repetitions):
        ctx = ExecutionContext()
        start = time.perf_counter()
        result = compiled.run(ctx)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            counters = ctx.counters
            rows = len(result)
    return Measurement(
        best,
        counters.total_work,
        rows,
        counters.table_scan_rows,
        counters.peak_partition_rows,
        counters.buffered_cells,
    )


def measure_callable(
    fn: Callable[[], int], repetitions: int, **fields: object
) -> Measurement:
    """Best-of-N timing for a whole-pipeline callable returning a size.

    For pipelines that do more than execute one physical plan (e.g. the
    XML publishing path: execute + tag); ``work`` is 0 unless passed in
    via ``fields``.
    """
    best = float("inf")
    size = 0
    for _ in range(repetitions):
        start = time.perf_counter()
        size = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    defaults: dict = {"work": 0, "rows": size}
    defaults.update(fields)
    return Measurement(elapsed=best, **defaults)


def measurements_to_json(
    named: "Sequence[tuple[str, Measurement]]", **meta: object
) -> dict:
    """The benchmark JSON document: ``meta`` + one record per measurement.

    This is the interchange format every experiment emits (the
    ``--smoke`` CI artifacts use it), so regression tooling reads one
    shape everywhere.
    """
    return {
        "meta": dict(meta),
        "measurements": [
            {"name": name, **measurement.to_dict()}
            for name, measurement in named
        ],
    }


def write_measurements_json(
    path: "str | Path", named: "Sequence[tuple[str, Measurement]]", **meta: object
) -> None:
    """Serialize :func:`measurements_to_json` to ``path``.

    Strict JSON: a non-finite number (an ``elapsed`` of ``inf`` from a
    run that measured nothing) is a ``ValueError``, not an artifact.
    """
    document = measurements_to_json(named, **meta)
    Path(path).write_text(json.dumps(document, indent=2, allow_nan=False) + "\n")


def tpch_catalog(scale: float) -> Catalog:
    """A fresh catalog holding the TPC-H tables at ``scale``."""
    catalog = Catalog()
    load_tpch(catalog, TpchConfig(scale=scale))
    return catalog


def bind(catalog: Catalog, sql: str) -> LogicalOperator:
    return Binder(catalog).bind(parse(sql))


def optimize_with(
    catalog: Catalog,
    logical: LogicalOperator,
    rules: list[Rule] | None = None,
) -> LogicalOperator:
    return Optimizer(catalog, rules).optimize(logical).best


def lower(
    catalog: Catalog,
    logical: LogicalOperator,
    options: PlannerOptions | None = None,
) -> PhysicalOperator:
    return Planner(catalog, options).plan(logical)


def measure_sql(
    catalog: Catalog,
    sql: str,
    options: PlannerOptions | None = None,
    repetitions: int = DEFAULT_REPETITIONS,
) -> Measurement:
    """Bind, optimize, lower and measure one SQL query."""
    logical = optimize_with(catalog, bind(catalog, sql))
    return measure_physical(lower(catalog, logical, options), repetitions)


def rules_without(excluded: str) -> list[Rule]:
    """The default rule set minus the named rule (Table-1 methodology)."""
    return [rule for rule in DEFAULT_RULES if rule.name != excluded]


@dataclass(frozen=True)
class RuleEffect:
    """One Table-1 data point: the same query with and without one rule."""

    parameter: object
    without_rule: Measurement
    with_rule: Measurement
    fired: bool

    @property
    def benefit(self) -> float:
        """time(without) / time(with); > 1 means the rule helped."""
        return self.without_rule.ratio_to(self.with_rule)

    @property
    def work_benefit(self) -> float:
        return self.without_rule.work_ratio_to(self.with_rule)

    @property
    def cells_benefit(self) -> float:
        """Buffered-cells ratio — the I/O/memory story behind the
        projection and aggregate-selection rules."""
        if self.with_rule.cells == 0:
            return float("inf") if self.without_rule.cells else 1.0
        return self.without_rule.cells / self.with_rule.cells

    @property
    def memory_benefit(self) -> float:
        """Peak partition-buffer rows ratio (Section 4.2's argument)."""
        if self.with_rule.peak_rows == 0:
            return float("inf") if self.without_rule.peak_rows else 1.0
        return self.without_rule.peak_rows / self.with_rule.peak_rows


#: The "traditional" rules (Selinger-style normalizations the paper takes
#: for granted: annotated join trees, column pruning). Applied before a
#: rule under test is forced, and as cleanup afterwards on both sides.
TRADITIONAL_RULE_NAMES = ("select_pushdown", "narrow_prune", "collapse_project")


def traditional_rules() -> list[Rule]:
    return [r for r in DEFAULT_RULES if r.name in TRADITIONAL_RULE_NAMES]


def rule_plans(
    catalog: Catalog, sql: str, rule: Rule
) -> tuple[LogicalOperator, LogicalOperator, LogicalOperator | None]:
    """The paper's Table-1 method: ``(normalized, without, with_rule)``.

    1. *normalized* — the bound plan under only the traditional rules
       (annotated join tree, column pruning): the paper's Section 4
       starting shape.
    2. *without* — the normalized plan optimized by every rule except the
       one under test.
    3. *with_rule* — the rule under test fired once on the normalized plan
       (forced, whether or not the cost model would choose it — Table 1
       shows rules can lose), then the same cleanup as step 2; ``None``
       when the rule does not apply.
    """
    normalized = optimize_with(catalog, bind(catalog, sql), traditional_rules())
    forced = apply_rule_once(normalized, rule, catalog)
    cleanup = rules_without(rule.name)
    without = optimize_with(catalog, normalized, cleanup)
    if forced is None:
        return normalized, without, None
    return normalized, without, optimize_with(catalog, forced, cleanup)


def measure_rule_effect(
    catalog: Catalog,
    sql: str,
    rule: Rule,
    parameter: object,
    options: PlannerOptions | None = None,
    repetitions: int = DEFAULT_REPETITIONS,
) -> RuleEffect:
    """One Table-1 data point: both :func:`rule_plans` sides, measured."""
    _, base_logical, treated_logical = rule_plans(catalog, sql, rule)
    without = measure_physical(lower(catalog, base_logical, options), repetitions)
    if treated_logical is None:
        return RuleEffect(parameter, without, without, fired=False)
    with_rule = measure_physical(
        lower(catalog, treated_logical, options), repetitions
    )
    return RuleEffect(parameter, without, with_rule, fired=True)


@dataclass(frozen=True)
class RuleSummary:
    """A Table-1 row: max / average / average-over-wins benefit."""

    rule_name: str
    title: str
    effects: tuple[RuleEffect, ...]

    @property
    def maximum_benefit(self) -> float:
        return max((e.benefit for e in self.effects if e.fired), default=1.0)

    @property
    def average_benefit(self) -> float:
        fired = [e.benefit for e in self.effects if e.fired]
        if not fired:
            return 1.0
        return sum(fired) / len(fired)

    @property
    def average_over_wins(self) -> float:
        wins = [e.benefit for e in self.effects if e.fired and e.benefit > 1.0]
        if not wins:
            return 1.0
        return sum(wins) / len(wins)

    @property
    def always_wins(self) -> bool:
        return all(e.benefit > 1.0 for e in self.effects if e.fired)
