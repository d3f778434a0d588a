"""Optimizer: property derivation, transformation rules, cost, planning."""

from repro.optimizer.cost import CostModel, Estimate
from repro.optimizer.engine import (
    OptimizationReport,
    Optimizer,
    apply_rule_once,
    rewrite_everywhere,
)
from repro.optimizer.planner import Planner, PlannerOptions, plan_physical
from repro.optimizer.properties import (
    covering_range,
    empty_on_empty,
    gp_eval_columns,
    invariant_grouping_node,
    referenced_columns,
)
from repro.optimizer.rules import DEFAULT_RULES, Rule, RuleContext, rule_by_name

__all__ = [
    "CostModel",
    "DEFAULT_RULES",
    "Estimate",
    "OptimizationReport",
    "Optimizer",
    "Planner",
    "PlannerOptions",
    "Rule",
    "RuleContext",
    "apply_rule_once",
    "covering_range",
    "empty_on_empty",
    "gp_eval_columns",
    "invariant_grouping_node",
    "plan_physical",
    "referenced_columns",
    "rewrite_everywhere",
    "rule_by_name",
]
