"""Transformation rules for plans containing GApply (Section 4)."""

from repro.optimizer.rules.base import Rule, RuleContext
from repro.optimizer.rules.column_pruning import CollapseProject, NarrowPrune
from repro.optimizer.rules.generic import (
    PushProjectIntoPerGroup,
    PushSelectIntoPerGroup,
)
from repro.optimizer.rules.group_selection import (
    AggregateGroupSelection,
    ExistsGroupSelection,
)
from repro.optimizer.rules.invariant_grouping import PushGApplyBelowJoin
from repro.optimizer.rules.join_order import JoinOrder
from repro.optimizer.rules.projection import ProjectionBeforeGApply
from repro.optimizer.rules.pull_gapply import PullGApplyAboveJoin
from repro.optimizer.rules.pushdown import SelectPushdown
from repro.optimizer.rules.selection import SelectionBeforeGApply
from repro.optimizer.rules.to_groupby import GApplyToGroupBy

#: The full rule set, in the order the engine tries them. Order only
#: affects exploration order, not the reachable set. ``JoinOrder`` is not
#: explored: the engine applies it once, to the bound plan.
DEFAULT_RULES: list[Rule] = [
    JoinOrder(),
    PushSelectIntoPerGroup(),
    PushProjectIntoPerGroup(),
    SelectionBeforeGApply(),
    ProjectionBeforeGApply(),
    GApplyToGroupBy(),
    ExistsGroupSelection(),
    AggregateGroupSelection(),
    PushGApplyBelowJoin(),
    PullGApplyAboveJoin(),
    SelectPushdown(),
    NarrowPrune(),
    CollapseProject(),
]


def rule_by_name(name: str) -> Rule:
    """Look up one of the default rules by its ``name`` attribute."""
    for rule in DEFAULT_RULES:
        if rule.name == name:
            return rule
    raise KeyError(
        f"unknown rule {name!r}; known: {[r.name for r in DEFAULT_RULES]}"
    )


__all__ = [
    "AggregateGroupSelection",
    "CollapseProject",
    "DEFAULT_RULES",
    "ExistsGroupSelection",
    "GApplyToGroupBy",
    "JoinOrder",
    "NarrowPrune",
    "ProjectionBeforeGApply",
    "PullGApplyAboveJoin",
    "PushGApplyBelowJoin",
    "PushProjectIntoPerGroup",
    "PushSelectIntoPerGroup",
    "Rule",
    "RuleContext",
    "SelectPushdown",
    "SelectionBeforeGApply",
    "rule_by_name",
]
