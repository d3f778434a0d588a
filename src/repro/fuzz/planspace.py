"""Planner configurations for plan-space equivalence checking.

The paper's claim is that every rewrite rule is semantics-preserving, so
the strongest executable check is: run the same query under *every*
planner configuration — each optimizer rule individually disabled, all
rules off (the bound plan as written), a GApply partition phase forced
to spill (the external sort), no index access paths — and demand
identical normalized result multisets. Every configuration runs through
``Database.sql`` (the compiled plan); the baseline it is compared with
is the same query on the row iterators
(:func:`repro.fuzz.oracle.reference_rows`).

Two profiles: ``FULL_PROFILE`` is the whole cross-product arm of the CLI
fuzzer (3 fixed configurations and one per optimizer rule);
``QUICK_PROFILE`` (3 + 5) keeps tier-1 test time bounded while still
covering the rule families with distinct failure modes. The engine
profile runs 8 configurations that change which batch operators and
fast paths a plan exercises, three of them spilling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import PlanError
from repro.optimizer.planner import PlannerOptions

#: Cells resident before the forced-spill configurations flush: a few
#: rows, so even the small fuzz tables write several runs.
FUZZ_SPILL_THRESHOLD = 8

#: Governor budget of the budgeted configurations: every ORDER BY,
#: DISTINCT and GApply partition spills, yet the widest fuzz row (and the
#: two half-threshold DISTINCT phases) still fits.
FUZZ_MEMORY_BUDGET = 48


@dataclass(frozen=True)
class PlanConfig:
    """One point in the plan space to execute a query under."""

    name: str
    options: PlannerOptions = field(default_factory=PlannerOptions)
    #: Governor memory budget in cells (None = unbudgeted): ORDER BY and
    #: DISTINCT sort externally under one.
    memory_budget: int | None = None


def _rule_names() -> list[str]:
    from repro.optimizer.rules import DEFAULT_RULES

    return [rule.name for rule in DEFAULT_RULES]


def plan_configurations(full: bool) -> list[PlanConfig]:
    rules = _rule_names()
    configs = [
        PlanConfig("all-rules-off", PlannerOptions(disabled_rules=tuple(rules))),
        PlanConfig(
            "forced-spill",
            PlannerOptions(gapply_spill_threshold=FUZZ_SPILL_THRESHOLD),
        ),
        PlanConfig("no-indexes", PlannerOptions(use_indexes=False)),
    ]
    if full:
        disabled = rules
    else:
        # The rule families with genuinely different rewrite shapes; the
        # rest are covered by all-rules-off and the nightly full profile.
        disabled = [
            "gapply_to_groupby",
            "invariant_grouping",
            "exists_group_selection",
            "aggregate_group_selection",
            "push_select_into_per_group",
        ]
    for name in disabled:
        configs.append(PlanConfig(f"no-{name}", PlannerOptions(disabled_rules=(name,))))
    return configs


def engine_configurations() -> list[PlanConfig]:
    """The engine-differential profile: every case's row-iterator baseline
    against the compiled plan across the knobs that change which batched
    operators and fast paths it exercises. Batch sizes 3 and 1 force
    cross-batch state (limit countdowns, distinct sets, hash-join builds
    spanning batches) that the default 128 hides on small fuzz data; the
    forced spill runs the partition phase's external sort, the budgeted
    pair the shared external sort and dedupe, all under
    vectorized inputs."""
    return [
        PlanConfig("vector"),
        PlanConfig("vector-batch-3", PlannerOptions(vector_batch_size=3)),
        PlanConfig("vector-batch-1", PlannerOptions(vector_batch_size=1)),
        PlanConfig(
            "vector-all-rules-off",
            PlannerOptions(disabled_rules=tuple(_rule_names())),
        ),
        PlanConfig(
            "vector-spill",
            PlannerOptions(gapply_spill_threshold=FUZZ_SPILL_THRESHOLD),
        ),
        PlanConfig("vector-budget", memory_budget=FUZZ_MEMORY_BUDGET),
        PlanConfig(
            "vector-budget-batch-3",
            PlannerOptions(vector_batch_size=3),
            memory_budget=FUZZ_MEMORY_BUDGET,
        ),
        PlanConfig("vector-no-indexes", PlannerOptions(use_indexes=False)),
    ]


#: Every configuration (the CLI default).
FULL_PROFILE = "full"
#: Bounded subset for tier-1 tests.
QUICK_PROFILE = "quick"
#: Row-iterator-vs-compiled differential across batch sizes and plan shapes.
ENGINE_PROFILE = "engine"


def profile_configurations(profile: str) -> list[PlanConfig]:
    if profile == FULL_PROFILE:
        return plan_configurations(full=True)
    if profile == QUICK_PROFILE:
        return plan_configurations(full=False)
    if profile == ENGINE_PROFILE:
        return engine_configurations()
    raise PlanError(f"unknown fuzz profile {profile!r}")
