"""Ablations around GApply's partition phase and the rules' access paths.

* **A2 index ablation** — the paper's server had indexes; the huge Table-1
  benefits (selection's 732x) come from selective predicates turning into
  cheap index seeks after a rule fires. The selection-before-GApply rewrite
  is measured with the planner's index support on and off: the *rule* fires
  either way, but without indexes its benefit is capped by full-scan costs.
* **spill** — the partition phase buffers the whole GApply input; under a
  cell budget it sorts resident rows into run files and merges them back
  (``repro.storage.spill``). Q4 — the paper's natively-GApply-planned
  query — in memory (hashed) vs forced to spill (sorted). Spilling
  trades memory for pickling and disk traffic, so the number to watch is
  the *ratio*, which bounds what a ``memory_budget=`` query pays when its
  partition buffer overflows. (Spilled rows equal in-memory rows for all
  ten paper formulations: ``tests/execution/test_spill.py``.)
"""

from __future__ import annotations

from repro.bench.harness import (
    Measurement,
    bind,
    lower,
    measure_physical,
    optimize_with,
    rule_plans,
    tpch_catalog,
)
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.execution.vector.compiler import compile_plan
from repro.optimizer.planner import PlannerOptions
from repro.optimizer.rules import rule_by_name
from repro.workloads.queries import query_by_name
from repro.workloads.rule_queries import SELECTION_SWEEP

#: Cells the partition buffer may hold resident. Small enough that Q4's
#: input overflows even at smoke scale (checked on every run), large enough
#: to produce several runs rather than one row per run.
SPILL_THRESHOLD = 256


def index_ablation_cases(
    scale: float, repetitions: int
) -> list[tuple[str, Measurement]]:
    catalog = tpch_catalog(scale)
    _, sql = SELECTION_SWEEP.instances()[1]  # the 905.0 threshold
    normalized, _, treated = rule_plans(
        catalog, sql, rule_by_name("selection_before_gapply")
    )
    if treated is None:
        raise RuntimeError("selection_before_gapply must fire on its own sweep")
    named = []
    for label, logical in (("rule", treated), ("no_rule", normalized)):
        for index_label, use_indexes in (("indexes", True), ("no_indexes", False)):
            plan = lower(catalog, logical, PlannerOptions(use_indexes=use_indexes))
            named.append(
                (f"{label}/{index_label}", measure_physical(plan, repetitions))
            )
    return named


def _require_spill(plan: PhysicalOperator, label: str) -> None:
    """Guard that a forced-spill arm measures real disk traffic: if the
    threshold stopped forcing a spill (say, the scale shrank), its numbers
    would silently be the in-memory path's."""
    ctx = ExecutionContext()
    compile_plan(plan).run(ctx)
    if not (ctx.counters.spilled_rows > 0 and ctx.counters.spill_runs > 0):
        raise RuntimeError(
            f"{label}: a {SPILL_THRESHOLD}-cell threshold did not force a spill"
        )


def spill_cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    catalog = tpch_catalog(scale)
    logical = optimize_with(catalog, bind(catalog, query_by_name("Q4").gapply_sql))
    named = []
    for label, threshold in (("memory", None), ("spill", SPILL_THRESHOLD)):
        plan = lower(
            catalog, logical, PlannerOptions(gapply_spill_threshold=threshold)
        )
        name = f"Q4-{label}"
        if threshold is not None:
            _require_spill(plan, name)
        named.append((name, measure_physical(plan, repetitions)))
    return named
