"""The Volcano-style transformation engine.

Rules propose semantics-preserving alternatives for individual nodes; the
engine splices them into the enclosing tree, explores the resulting space
to a fixpoint (with a safety cap), costs every alternative with the
Section-4.4 model, and returns the cheapest plan. The exploration records
which tree and rule each alternative came from; the chosen plan's
derivation (``fired``) is the walk back through those records.

The paper observes that its rules "either push GApply down in the join
tree, or altogether eliminate GApply, or add new selections and projections
in the outer subtree ... none of which can be reversed by any of the other
rules. Hence, successive firing of rules will terminate." The engine also
deduplicates explored trees structurally, so even rule sets with inverse
pairs terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import LogicalOperator
from repro.errors import OptimizerError
from repro.optimizer.cost import CostModel, Estimate
from repro.optimizer.rules import DEFAULT_RULES
from repro.optimizer.rules.base import Rule, RuleContext
from repro.storage.catalog import Catalog

DEFAULT_MAX_ALTERNATIVES = 128


def rewrite_everywhere(
    tree: LogicalOperator, rule: Rule, context: RuleContext
) -> list[LogicalOperator]:
    """All trees obtained by applying ``rule`` at exactly one node."""
    results: list[LogicalOperator] = list(rule.apply(tree, context))
    children = tree.children()
    for index, child in enumerate(children):
        for new_child in rewrite_everywhere(child, rule, context):
            new_children = list(children)
            new_children[index] = new_child
            try:
                rebuilt = tree.with_children(tuple(new_children))
                rebuilt.schema  # force validation
            except Exception:
                continue
            results.append(rebuilt)
    return results


@dataclass(frozen=True)
class RuleFiring:
    """Exploration statistics for one rule: how many rewrites it proposed
    across the whole search, and how many were new (not structurally equal
    to an already-seen alternative)."""

    rule: str
    proposed: int
    kept: int

    def to_dict(self) -> dict:
        return {"rule": self.rule, "proposed": self.proposed, "kept": self.kept}


@dataclass
class OptimizationReport:
    """Outcome of an optimization run: the chosen plan plus provenance.

    ``fired`` is the derivation the exploration recorded for the chosen
    plan: the rule names along its first-discovery path from the input,
    in firing order. ``rule_trace`` is the full exploration ledger (every
    rule with its proposed/kept counts), and ``truncated`` reports whether
    the alternative cap cut the search short — all three feed EXPLAIN.
    """

    best: LogicalOperator
    best_estimate: Estimate
    original_estimate: Estimate
    explored: int
    fired: list[str] = field(default_factory=list)
    rule_trace: list[RuleFiring] = field(default_factory=list)
    truncated: bool = False

    @property
    def improved(self) -> bool:
        return self.best_estimate.cost < self.original_estimate.cost


class Optimizer:
    """Exhaustive (capped) rule application + cost-based plan choice."""

    def __init__(
        self,
        catalog: Catalog,
        rules: list[Rule] | None = None,
        max_alternatives: int = DEFAULT_MAX_ALTERNATIVES,
    ):
        self.catalog = catalog
        self.rules = list(DEFAULT_RULES if rules is None else rules)
        self.max_alternatives = max_alternatives

    def explore(self, plan: LogicalOperator) -> list[LogicalOperator]:
        """Every distinct plan reachable by rule application (incl. input)."""
        return self._explore_traced(plan)[0]

    def _explore_traced(
        self, plan: LogicalOperator
    ) -> tuple[list[LogicalOperator], list[tuple[int, str]], list[RuleFiring], bool]:
        """Breadth-first exploration: the alternatives in discovery order,
        each one's origin (index of the tree it was rewritten from, rule
        name; unused for the input), the per-rule proposed/kept ledger, and
        whether the alternative cap truncated the search."""
        context = RuleContext(self.catalog)
        seen: set[LogicalOperator] = {plan}
        ordered: list[LogicalOperator] = [plan]
        origins: list[tuple[int, str]] = [(0, "")]
        stats = {rule.name: [0, 0] for rule in self.rules}
        truncated = len(ordered) >= self.max_alternatives
        cursor = 0
        while cursor < len(ordered) and not truncated:
            for rule in self.rules:
                tally = stats[rule.name]
                for alternative in rewrite_everywhere(ordered[cursor], rule, context):
                    tally[0] += 1
                    if alternative in seen:
                        continue
                    seen.add(alternative)
                    tally[1] += 1
                    ordered.append(alternative)
                    origins.append((cursor, rule.name))
                    if len(ordered) >= self.max_alternatives:
                        truncated = True
                        break
                if truncated:
                    break
            cursor += 1
        trace = [RuleFiring(name, *tally) for name, tally in stats.items()]
        return ordered, origins, trace, truncated

    def optimize(self, plan: LogicalOperator) -> OptimizationReport:
        """Pick the cheapest alternative under the Section-4.4 cost model."""
        model = CostModel(self.catalog)
        original = model.estimate(plan)
        alternatives, origins, rule_trace, truncated = self._explore_traced(plan)
        best_index = 0
        best_estimate = original
        for index, alternative in enumerate(alternatives[1:], 1):
            if alternative.schema != plan.schema:
                raise OptimizerError(
                    "rule produced a plan with a different output schema:\n"
                    f"  original: {plan.schema!r}\n"
                    f"  rewritten: {alternative.schema!r}"
                )
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
        return OptimizationReport(
            best=alternatives[best_index],
            best_estimate=best_estimate,
            original_estimate=original,
            explored=len(alternatives),
            fired=fired,
            rule_trace=rule_trace,
            truncated=truncated,
        )


def apply_rule_once(
    plan: LogicalOperator, rule: Rule, catalog: Catalog
) -> LogicalOperator | None:
    """First rewrite of ``plan`` by ``rule``, or None. Used by the Table-1
    harness, which measures each rule's effect in isolation."""
    context = RuleContext(catalog)
    rewrites = rewrite_everywhere(plan, rule, context)
    return rewrites[0] if rewrites else None

