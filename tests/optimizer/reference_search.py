"""The naive plan search, kept as the reference the interned one is held to.

This is ``rewrite_everywhere`` and ``Optimizer.optimize`` as they were
before the search interned its subtrees (after the same join-ordering
prologue, which is not part of the search): every rule called at every node
of every explored tree, every rebuilt ancestor constructed and
re-validated, every alternative deduplicated by a structural hash of the
whole tree and costed from scratch. Slow and obviously right; the
differential tests demand that the production search returns the same
report, field by field.
"""

from __future__ import annotations

from repro.algebra.operators import LogicalOperator
from repro.errors import OptimizerError
from repro.optimizer.cost import CostModel
from repro.optimizer.engine import OptimizationReport, RuleFiring
from repro.optimizer.rules.base import Rule, RuleContext
from repro.optimizer.rules.join_order import JoinOrder
from repro.storage.catalog import Catalog


def reference_rewrite_everywhere(
    tree: LogicalOperator, rule: Rule, context: RuleContext
) -> list[LogicalOperator]:
    """All trees obtained by applying ``rule`` at exactly one node."""
    results: list[LogicalOperator] = list(rule.apply(tree, context))
    children = tree.children()
    for index, child in enumerate(children):
        for new_child in reference_rewrite_everywhere(child, rule, context):
            new_children = list(children)
            new_children[index] = new_child
            try:
                rebuilt = tree.with_children(tuple(new_children))
                rebuilt.schema  # force validation
            except Exception:
                continue
            results.append(rebuilt)
    return results


def reference_explore(
    catalog: Catalog, rules: list[Rule], max_alternatives: int, plan: LogicalOperator
) -> tuple[list[LogicalOperator], list[tuple[int, str]], list[RuleFiring], bool, list[str]]:
    """Breadth-first exploration with a structural ``seen`` set, from
    ``plan`` with its join regions ordered by the ``JoinOrder`` rules
    among ``rules`` (never explored): the alternatives in discovery order,
    each one's origin, the per-rule proposed/kept ledger, whether the cap
    truncated the search, and the JoinOrder rules that changed ``plan``."""
    context = RuleContext(catalog)
    stats = {rule.name: [0, 0] for rule in rules}
    prologue: list[str] = []
    for rule in rules:
        if isinstance(rule, JoinOrder):
            ordered_plan = rule.order(plan, CostModel(catalog))
            if ordered_plan != plan:
                plan = ordered_plan
                prologue.append(rule.name)
                stats[rule.name] = [1, 1]
    rules = [rule for rule in rules if not isinstance(rule, JoinOrder)]
    seen: set[LogicalOperator] = {plan}
    ordered: list[LogicalOperator] = [plan]
    origins: list[tuple[int, str]] = [(0, "")]
    truncated = len(ordered) >= max_alternatives
    cursor = 0
    while cursor < len(ordered) and not truncated:
        for rule in rules:
            tally = stats[rule.name]
            for alternative in reference_rewrite_everywhere(
                ordered[cursor], rule, context
            ):
                tally[0] += 1
                if alternative in seen:
                    continue
                seen.add(alternative)
                tally[1] += 1
                ordered.append(alternative)
                origins.append((cursor, rule.name))
                if len(ordered) >= max_alternatives:
                    truncated = True
                    break
            if truncated:
                break
        cursor += 1
    trace = [RuleFiring(name, *tally) for name, tally in stats.items()]
    return ordered, origins, trace, truncated, prologue


def reference_optimize(
    catalog: Catalog, rules: list[Rule], max_alternatives: int, plan: LogicalOperator
) -> OptimizationReport:
    """Cost every explored tree from scratch and keep the first cheapest."""
    model = CostModel(catalog)
    original = model.estimate(plan)
    alternatives, origins, rule_trace, truncated, prologue = reference_explore(
        catalog, rules, max_alternatives, plan
    )
    if alternatives[0].schema != plan.schema:
        raise OptimizerError("join ordering produced a different output schema")
    best_index = 0
    best_estimate = model.estimate(alternatives[0])
    for index, alternative in enumerate(alternatives[1:], 1):
        if alternative.schema != plan.schema:
            raise OptimizerError("rule produced a plan with a different output schema")
        estimate = model.estimate(alternative)
        if estimate.cost < best_estimate.cost:
            best_index = index
            best_estimate = estimate
    fired: list[str] = []
    index = best_index
    while index:
        index, rule_name = origins[index]
        fired.append(rule_name)
    fired.reverse()
    fired[:0] = prologue
    return OptimizationReport(
        best=alternatives[best_index],
        best_estimate=best_estimate,
        original_estimate=original,
        explored=len(alternatives),
        fired=fired,
        rule_trace=rule_trace,
        truncated=truncated,
    )
