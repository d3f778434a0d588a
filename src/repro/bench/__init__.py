"""The experiment harness: Figure 8, Table 1, the client-side simulation
and the ablations, run by ``python -m repro.bench``."""

from repro.bench.harness import (
    Measurement,
    RuleEffect,
    RuleSummary,
    measure_physical,
    measure_rule_effect,
    measure_sql,
    rules_without,
)

__all__ = [
    "Measurement",
    "RuleEffect",
    "RuleSummary",
    "measure_physical",
    "measure_rule_effect",
    "measure_sql",
    "rules_without",
]
