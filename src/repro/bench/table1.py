"""Table 1: effect of the transformation rules.

Print the table with ``python -m repro.bench table1_rules``.

For every rule the paper benchmarks, the harness sweeps the corresponding
parameterized query (:mod:`repro.workloads.rule_queries`), measures each
instance with the rule forced off and forced on, and reports the paper's
three statistics: maximum benefit, average benefit, and average over wins.
"""

from __future__ import annotations

from repro.bench.harness import (
    Measurement,
    RuleSummary,
    measure_rule_effect,
    tpch_catalog,
)
from repro.optimizer.rules import rule_by_name
from repro.storage.catalog import Catalog
from repro.workloads.rule_queries import TABLE1_SWEEPS, RuleSweep

#: Table 1 as printed in the paper (max / avg / avg-over-wins).
PAPER_TABLE1 = {
    "selection_before_gapply": (732.94, 124.97, 124.97),
    "projection_before_gapply": (5.05, 3.42, 3.42),
    "gapply_to_groupby": (1.3, 1.19, 1.19),
    "exists_group_selection": (14.6, 1.67, 1.93),
    "aggregate_group_selection": (6.3, 2.08, 3.72),
    "invariant_grouping": (2.56, 1.32, 1.32),
}

DEFAULT_SCALE = 0.2


def _ratio(value: float) -> str:
    if value == float("inf"):
        return "  >999x"
    return f"{value:>6.2f}x"


def run_sweep(
    catalog: Catalog, sweep: RuleSweep, repetitions: int = 3
) -> RuleSummary:
    rule = rule_by_name(sweep.rule_name)
    effects = []
    for parameter, sql in sweep.instances():
        effects.append(
            measure_rule_effect(
                catalog, sql, rule, parameter, repetitions=repetitions
            )
        )
    return RuleSummary(sweep.rule_name, sweep.title, tuple(effects))


def run_table1(
    scale: float = DEFAULT_SCALE, repetitions: int = 3
) -> list[RuleSummary]:
    catalog = tpch_catalog(scale)
    return [run_sweep(catalog, sweep, repetitions) for sweep in TABLE1_SWEEPS]


def format_summaries(summaries: list[RuleSummary]) -> str:
    lines = [
        "Table 1 — effect of transformation rules "
        "(benefit = time without rule / time with rule)",
        "",
        f"{'rule':<34} {'max':>9} {'avg':>8} {'avg/wins':>9}   paper (max/avg/wins)",
    ]
    for summary in summaries:
        paper = PAPER_TABLE1[summary.rule_name]
        lines.append(
            f"{summary.title:<34} {summary.maximum_benefit:>8.2f}x "
            f"{summary.average_benefit:>7.2f}x "
            f"{summary.average_over_wins:>8.2f}x   "
            f"{paper[0]:.2f} / {paper[1]:.2f} / {paper[2]:.2f}"
        )
        for effect in summary.effects:
            marker = "" if effect.fired else "  (rule did not fire)"
            lines.append(
                f"    param={effect.parameter!r:<12} "
                f"benefit {effect.benefit:>7.2f}x  "
                f"work {_ratio(effect.work_benefit)}  "
                f"buffered-cells {_ratio(effect.cells_benefit)}  "
                f"peak-mem {_ratio(effect.memory_benefit)}{marker}"
            )
    return "\n".join(lines)


def cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    """E2-E7: run every sweep, print Table 1, and return each rule's most
    selective instance (the first of its sweep) as a without/with pair."""
    summaries = run_table1(scale, repetitions)
    print(format_summaries(summaries), end="\n\n")
    named = []
    for summary in summaries:
        effect = summary.effects[0]
        named.append((f"{summary.rule_name}/without", effect.without_rule))
        named.append((f"{summary.rule_name}/with", effect.with_rule))
    return named
