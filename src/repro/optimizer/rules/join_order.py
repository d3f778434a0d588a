"""Cost-based join ordering of inner-join regions (DPsize).

The paper's baselines ran on an optimizer that orders joins; this engine's
rules never commute or reassociate a join, so a comma join would run in
FROM order. Following *XQuery Join Graph Isolation*, each join graph is
isolated and handed to a classical enumerator, once, before the rule
search (:meth:`~repro.optimizer.engine.Optimizer.optimize`):

* A **region** is a maximal tree of INNER/CROSS joins plus the selects
  sitting directly on them; its **leaves** are everything else (scans,
  aliased derived tables, any other operator). Leaves' own regions are
  ordered first.
* Each conjunct of the region is classified by the leaves its columns
  resolve to (parameters do not count). A one-leaf conjunct filters that
  leaf; a column equality between two leaves is an **edge** of the join
  graph; every other conjunct is a residual placed on the lowest join
  that covers it (a conjunct over no column filters the region's root).
* **DPsize** builds the cheapest plan of every connected leaf set, larger
  sets from pairs of smaller ones linked by an edge; a split linked only
  by residuals is a cross product, enumerated only when the graph is
  disconnected. Plans are priced by the caller's :class:`CostModel`.
* The written join tree (with its conjuncts placed) is kept when DPsize
  could have built it and the DP-best tree is not strictly cheaper; a
  written cross product over a connected graph is replaced. Where the
  region's consumer reads its columns by position, the DP-best tree is
  priced with the :class:`Prune` that restores the region's column
  order; under an operator that reads them by name none is needed. Both
  rules make the chosen cost independent of the FROM order. A region
  with a column reference that resolves to no leaf or to several keeps
  its written shape, and one with more than :data:`MAX_LEAVES` leaves
  keeps it with its conjuncts placed.
"""

from __future__ import annotations

from repro.algebra.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    conjoin,
    conjuncts,
)
from repro.algebra.operators import (
    GroupBy,
    Join,
    JoinKind,
    LogicalOperator,
    Project,
    Prune,
    Remap,
    Select,
    TableScan,
)
from repro.errors import SchemaError
from repro.optimizer.cost import CostModel
from repro.optimizer.rules.base import Rule, RuleContext

#: Leaves beyond which a region keeps its written shape (conjuncts still
#: placed): with cross products allowed DPsize tries about 3^n splits.
MAX_LEAVES = 6

_REGION_KINDS = (JoinKind.INNER, JoinKind.CROSS)

#: Operators that read their child's columns by name, never by position.
_BY_NAME = (GroupBy, Project, Prune, Remap)

#: A join tree's shape: a leaf index, or a (left, right) pair of shapes.
Shape = int | tuple


def is_region(node: LogicalOperator) -> bool:
    """Whether ``node`` is (selects over) an INNER/CROSS join."""
    while isinstance(node, Select):
        node = node.child
    return isinstance(node, Join) and node.kind in _REGION_KINDS


def _flatten(
    node: LogicalOperator, leaves: list[LogicalOperator], pool: list[Expression]
) -> Shape:
    """The written shape of the region under ``node``; appends its leaves
    left to right and its conjuncts bottom-up."""
    if not is_region(node):
        leaves.append(node)
        return len(leaves) - 1
    if isinstance(node, Select):
        shape = _flatten(node.child, leaves, pool)
    else:
        shape = (_flatten(node.left, leaves, pool), _flatten(node.right, leaves, pool))
    pool.extend(conjuncts(node.predicate))
    return shape


def _relink(node: LogicalOperator, leaves) -> LogicalOperator:
    """The region under ``node`` as written, over the next ``leaves``."""
    if not is_region(node):
        return next(leaves)
    return node.with_children(tuple(_relink(child, leaves) for child in node.children()))


def _bits(mask: int):
    """The leaf indices set in ``mask``, ascending."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


class _Region:
    """One region's leaves and conjuncts, and the plans built over them."""

    def __init__(
        self,
        leaves: list[LogicalOperator],
        pool: list[Expression],
        model: CostModel,
    ):
        self.leaves = leaves
        self.model = model
        #: (leaf mask, conjunct); mask 0 for a conjunct over no column.
        self.placed: list[tuple[int, Expression]] = []
        #: Per leaf, the mask of the leaves an edge links it to.
        self.links = [0] * len(leaves)
        self.resolved = True
        for conjunct in pool:
            mask = self._owners(conjunct)
            if mask is None:
                self.resolved = False
                return
            self.placed.append((mask, conjunct))
            if _is_equality(conjunct) and bin(mask).count("1") == 2:
                first, second = _bits(mask)
                self.links[first] |= 1 << second
                self.links[second] |= 1 << first
        #: Whether DPsize may form cross products: the graph is disconnected.
        self.cross = not self._connected()

    def _owners(self, conjunct: Expression) -> int | None:
        mask = 0
        for reference in conjunct.columns():
            owners = [i for i, leaf in enumerate(self.leaves) if leaf.schema.has(reference)]
            if len(owners) != 1:
                return None
            mask |= 1 << owners[0]
        return mask

    def leaf(self, index: int) -> LogicalOperator:
        node = self.leaves[index]
        local = [c for mask, c in self.placed if mask == 1 << index]
        if not local:
            return node
        if isinstance(node, Select):
            return Select(node.child, conjoin([node.predicate, *local]))
        return Select(node, conjoin(local))

    def join(
        self, left: LogicalOperator, left_mask: int, right: LogicalOperator, right_mask: int
    ) -> LogicalOperator:
        both = left_mask | right_mask
        predicate = conjoin(
            [
                c
                for mask, c in self.placed
                if mask & left_mask and mask & right_mask and not mask & ~both
            ]
        )
        kind = JoinKind.INNER if predicate is not None else JoinKind.CROSS
        return Join(left, right, predicate, kind)

    def build(self, shape: Shape) -> tuple[LogicalOperator, int]:
        """``shape`` as a plan with every conjunct placed, and its mask."""
        if isinstance(shape, int):
            return self.leaf(shape), 1 << shape
        left, left_mask = self.build(shape[0])
        right, right_mask = self.build(shape[1])
        return self.join(left, left_mask, right, right_mask), left_mask | right_mask

    def finish(self, plan: LogicalOperator) -> LogicalOperator:
        """The region's root: ``plan`` under its conjuncts over no column."""
        constant = conjoin([c for mask, c in self.placed if mask == 0])
        return plan if constant is None else Select(plan, constant)

    def cost(self, plan: LogicalOperator) -> float:
        return self.model.estimate(plan).cost

    def linked(self, left: int, right: int) -> bool:
        return any(self.links[i] & right for i in _bits(left))

    def _connected(self) -> bool:
        reached = frontier = 1
        while frontier:
            grown = reached
            for index in _bits(frontier):
                grown |= self.links[index]
            frontier = grown & ~reached
            reached = grown
        return reached == (1 << len(self.leaves)) - 1

    def in_space(self, shape: Shape) -> int:
        """The mask of ``shape`` when DPsize enumerates it (every join of it
        linked by an edge, or the graph disconnected), else 0."""
        if isinstance(shape, int):
            return 1 << shape
        left, right = self.in_space(shape[0]), self.in_space(shape[1])
        if not (left and right and (self.cross or self.linked(left, right))):
            return 0
        return left | right

    def cheapest(self, written: LogicalOperator, restore: bool) -> LogicalOperator | None:
        """DPsize over the leaves: the cheapest full plan, restored to the
        column order of ``written`` when ``restore`` (None when no Prune
        restores it)."""
        count = len(self.leaves)
        full = (1 << count) - 1
        columns = written.schema.columns
        best: dict[int, tuple[LogicalOperator, float]] = {}
        by_size: list[list[int]] = [[] for _ in range(count + 1)]
        for index in range(count):
            plan = self.leaf(index)
            best[1 << index] = (plan, self.cost(plan))
            by_size[1].append(1 << index)
        for size in range(2, count + 1):
            for left_size in range(1, size):
                for left in by_size[left_size]:
                    for right in by_size[size - left_size]:
                        if left & right or not (self.cross or self.linked(left, right)):
                            continue
                        plan = self.join(best[left][0], left, best[right][0], right)
                        if left | right == full:
                            plan = self._restored(plan, columns) if restore else plan
                            if plan is None:
                                continue
                            plan = self.finish(plan)
                        cost = self.cost(plan)
                        found = best.get(left | right)
                        if found is None:
                            by_size[size].append(left | right)
                        if found is None or cost < found[1]:
                            best[left | right] = (plan, cost)
        found = best.get(full)
        return None if found is None else found[0]

    @staticmethod
    def _restored(plan: LogicalOperator, columns: tuple) -> LogicalOperator | None:
        if plan.schema.columns == columns:
            return plan
        try:
            restored = Prune(plan, tuple(column.qualified_name for column in columns))
            return restored if restored.schema.columns == columns else None
        except SchemaError:  # an unqualified name another column shares
            return None


def _is_equality(conjunct: Expression) -> bool:
    return (
        isinstance(conjunct, Comparison)
        and conjunct.op is ComparisonOp.EQ
        and isinstance(conjunct.left, ColumnRef)
        and isinstance(conjunct.right, ColumnRef)
    )


class JoinOrder(Rule):
    """Order every join region of a plan by estimated cost (see module
    docstring). The optimizer applies it once, before the rule search;
    :meth:`apply` offers the same rewrite for harnesses that fire rules
    one node at a time."""

    name = "join_order"

    def apply(
        self, node: LogicalOperator, context: RuleContext
    ) -> list[LogicalOperator]:
        ordered = self.order(node, CostModel(context.catalog))
        return [] if ordered == node else [ordered]

    def order(
        self, node: LogicalOperator, model: CostModel, by_name: bool = False
    ) -> LogicalOperator:
        """``node`` with every region in it ordered, leaves' regions first.
        ``by_name`` says that ``node``'s consumer reads its columns by name
        (a Project, GroupBy, Prune or Remap), so a region there may come
        out in any column order; elsewhere a Prune restores the order."""
        if is_region(node):
            leaves: list[LogicalOperator] = []
            pool: list[Expression] = []
            shape = _flatten(node, leaves, pool)
            leaves = [self.order(leaf, model) for leaf in leaves]
            region = _Region(leaves, pool, model)
            if not region.resolved:
                return _relink(node, iter(leaves))
            written = region.finish(region.build(shape)[0])
            if len(leaves) > MAX_LEAVES:
                return written
            cheapest = region.cheapest(written, restore=not by_name)
            if cheapest is None or (
                region.in_space(shape) and region.cost(written) <= region.cost(cheapest)
            ):
                return written
            return cheapest
        children = node.children()
        by_name = isinstance(node, _BY_NAME)
        ordered = tuple(self.order(child, model, by_name) for child in children)
        if all(new is old for new, old in zip(ordered, children)):
            return node
        return node.with_children(ordered)


def join_tree(node: LogicalOperator) -> object:
    """The join order of a plan: each table scan as its binding name, each
    INNER/CROSS join as a (left, right) tuple, every other operator as the
    list of its children's trees (the child's tree when it has one)."""
    if isinstance(node, TableScan):
        return node.binding_name
    if isinstance(node, Join) and node.kind in _REGION_KINDS:
        return (join_tree(node.left), join_tree(node.right))
    children = [join_tree(child) for child in node.children()]
    return children[0] if len(children) == 1 else children
