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

Before the search, :class:`~repro.optimizer.rules.join_order.JoinOrder`
orders every inner-join region of the bound plan by cost, once (when it
is among the rules): no rule of the search commutes or reassociates a
join, so the search starts from the ordered regions and never enumerates
join orders itself.

Explored trees share most of their subtrees, so one search hash-conses
them (:class:`SearchSpace`): structurally equal subtrees become one object
for the length of the search, and each rule's rewrites of a subtree and
each estimate of a subtree are computed once and reused by every tree that
contains it. What the search finds, in what order, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algebra.operators import OPERATOR, LogicalOperator
from repro.algebra.tree import layouts
from repro.errors import OptimizerError
from repro.optimizer.cost import CostModel, Estimate
from repro.optimizer.rules import DEFAULT_RULES
from repro.optimizer.rules.base import Rule, RuleContext
from repro.optimizer.rules.join_order import JoinOrder
from repro.storage.catalog import Catalog

DEFAULT_MAX_ALTERNATIVES = 128

#: Every operator class's field layout (see :mod:`repro.algebra.tree`).
_LAYOUTS = layouts(OPERATOR)


def payload_fields(kind: type[LogicalOperator]) -> tuple[str, ...]:
    """The dataclass fields of ``kind`` that are not children: the
    non-structural half of the one field classification the operators'
    ``children``/``with_children`` derive from, so a new field is part of
    the interning key without anyone listing it."""
    return _LAYOUTS[kind].payload


class SearchSpace:
    """The interned subtrees of one search and each one's rewrites.

    A subtree is *interned* under its operator type, its non-child fields
    and the identities of its interned children, so two subtrees that are
    equal (by the operators' dataclass equality, which is what the search
    deduplicates by) are one object here and identity stands in for
    structural equality. That is sound only because equal subtrees are
    interchangeable: a tree may hold one subtree twice, and both places get
    the same object (hence :class:`~repro.algebra.expressions.Literal`'s
    type-strict equality). The rewrite list of each (interned subtree, rule)
    pair is computed once. Every table holds the nodes it keys, and
    nothing refers back to the space, so it is freed by refcount when the
    search that made it returns.
    """

    def __init__(self, context: RuleContext, rules: list[Rule]):
        self.context = context
        self.rules = rules
        self._by_key: dict[tuple, LogicalOperator] = {}
        self._interned: dict[int, LogicalOperator] = {}
        self._rewrites: list[dict[int, list[LogicalOperator]]] = [{} for _ in rules]

    def intern(self, node: LogicalOperator) -> LogicalOperator:
        """The interned node equal to ``node`` (``node`` itself if it is the
        first of its kind and its children are already interned)."""
        if self._interned.get(id(node)) is node:
            return node
        children = node.children()
        interned = tuple([self.intern(child) for child in children])
        key = self._key(node, interned)
        found = self._by_key.get(key)
        if found is None:
            if any(new is not old for new, old in zip(interned, children)):
                node = node.with_children(interned)
            found = self._add(key, node)
        return found

    def rewrites(self, node: LogicalOperator, rule_index: int) -> list[LogicalOperator]:
        """Every tree obtained by applying rule ``rule_index`` at exactly one
        node of the interned ``node``, interned, in ``rewrite_everywhere``'s
        order. The list is shared: callers must not mutate it."""
        memo = self._rewrites[rule_index]
        results = memo.get(id(node))
        if results is not None:
            return results
        results = [
            self.intern(alternative)
            for alternative in self.rules[rule_index].apply(node, self.context)
        ]
        children = node.children()
        for index, child in enumerate(children):
            # Most children are already memoized: skip the call for them.
            child_rewrites = memo.get(id(child))
            if child_rewrites is None:
                child_rewrites = self.rewrites(child, rule_index)
            for new_child in child_rewrites:
                rebuilt = self._rebuild(
                    node, children[:index] + (new_child,) + children[index + 1 :]
                )
                if rebuilt is not None:
                    results.append(rebuilt)
        memo[id(node)] = results
        return results

    def _rebuild(
        self, node: LogicalOperator, children: tuple[LogicalOperator, ...]
    ) -> LogicalOperator | None:
        """``node`` over interned ``children``, or None when the rebuilt node
        fails schema validation."""
        key = self._key(node, children)
        found = self._by_key.get(key)
        try:
            rebuilt = node.with_children(children) if found is None else found
            rebuilt.schema  # force validation
        except Exception:
            return None
        return self._add(key, rebuilt) if found is None else found

    def _key(
        self, node: LogicalOperator, children: tuple[LogicalOperator, ...]
    ) -> tuple:
        kind = type(node)
        return (kind, *_LAYOUTS[kind].payload_of(node), *map(id, children))

    def _add(self, key: tuple, node: LogicalOperator) -> LogicalOperator:
        self._by_key[key] = node
        self._interned[id(node)] = node
        return node


def rewrite_everywhere(
    tree: LogicalOperator, rule: Rule, context: RuleContext
) -> list[LogicalOperator]:
    """All trees obtained by applying ``rule`` at exactly one node."""
    space = SearchSpace(context, [rule])
    return space.rewrites(space.intern(tree), 0)


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
        """Every distinct plan reachable by rule application from the
        join-ordered ``plan`` (that one first)."""
        start, prologue = self._order_joins(plan, CostModel(self.catalog))
        return self._explore_traced(start, prologue)[0]

    def _order_joins(
        self, plan: LogicalOperator, model: CostModel
    ) -> tuple[LogicalOperator, list[str]]:
        """``plan`` with its join regions ordered by the ``JoinOrder`` rules
        among ``self.rules``, and the names of those that changed it."""
        fired = []
        for rule in self.rules:
            if isinstance(rule, JoinOrder):
                ordered = rule.order(plan, model)
                if ordered != plan:
                    plan = ordered
                    fired.append(rule.name)
        return plan, fired

    def _explore_traced(
        self, plan: LogicalOperator, prologue: list[str]
    ) -> tuple[list[LogicalOperator], list[tuple[int, str]], list[RuleFiring], bool]:
        """Breadth-first exploration: the alternatives in discovery order,
        each one's origin (index of the tree it was rewritten from, rule
        name; unused for the input), the per-rule proposed/kept ledger (the
        ``prologue`` rules, which rewrote the input before the search, count
        one each), and whether the alternative cap truncated the search.
        Alternatives are interned (the input too), so ``seen`` is a set of
        identities."""
        rules = [rule for rule in self.rules if not isinstance(rule, JoinOrder)]
        space = SearchSpace(RuleContext(self.catalog), rules)
        plan = space.intern(plan)
        seen: set[int] = {id(plan)}
        ordered: list[LogicalOperator] = [plan]
        origins: list[tuple[int, str]] = [(0, "")]
        stats = {rule.name: [0, 0] for rule in self.rules}
        for name in prologue:
            stats[name] = [1, 1]
        truncated = len(ordered) >= self.max_alternatives
        cursor = 0
        while cursor < len(ordered) and not truncated:
            for rule_index, rule in enumerate(rules):
                tally = stats[rule.name]
                for alternative in space.rewrites(ordered[cursor], rule_index):
                    tally[0] += 1
                    if id(alternative) in seen:
                        continue
                    seen.add(id(alternative))
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
        """Order the join regions, then pick the cheapest alternative the
        search reaches from there under the Section-4.4 cost model. The
        ``original_estimate`` stays the bound plan's."""
        # The model estimates each (interned subtree, group size) pair once.
        model = CostModel(self.catalog)
        start, prologue = self._order_joins(plan, model)
        alternatives, origins, rule_trace, truncated = self._explore_traced(
            start, prologue
        )
        original = model.estimate(plan)
        best_index = 0
        best_estimate = model.estimate(alternatives[0])
        for index, alternative in enumerate(alternatives):
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
        fired.extend(reversed(prologue))
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

