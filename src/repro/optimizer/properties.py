"""Property derivations over per-group queries (Section 4 of the paper).

Three analyses drive the transformation rules:

* :func:`empty_on_empty` — the paper's ``emptyOnEmpty`` bit: does the
  subtree produce an empty output on an empty input? Needed before pushing
  a covering-range selection into the outer query (Theorem 1's caveat — a
  ``count(*)`` over an empty group still returns a row).

* :func:`covering_range` — the minimal selection condition on the group such
  that running the per-group query on the selected subset equals running it
  on the whole group (Theorem 1). ``None`` encodes the condition *true*
  (the whole group is needed).

* :func:`gp_eval_columns` — the paper's *gp-eval columns*: columns genuinely
  needed to **evaluate** the per-group query (selection columns, aggregated
  columns, grouping keys, ordering columns) as opposed to columns that are
  merely projected and could be re-attached by later joins. Used by the
  invariant-grouping rule when pushing GApply below joins.

Also here: :func:`referenced_columns` (every column the PGQ touches, for the
projection rule) and :func:`invariant_grouping_node` (Definition 2's test
over left-deep join trees).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.expressions import (
    Expression,
    Or,
    conjoin,
)
from repro.algebra.operators import (
    Alias,
    Apply,
    Distinct,
    Exists,
    GApply,
    GroupBy,
    GroupScan,
    Join,
    JoinKind,
    Limit,
    LogicalOperator,
    OrderBy,
    Project,
    Prune,
    Remap,
    Select,
    TableScan,
    Union,
    UnionAll,
)
from repro.errors import OptimizerError
from repro.storage.catalog import Catalog


# ----------------------------------------------------------------------
# emptyOnEmpty
# ----------------------------------------------------------------------


def empty_on_empty(node: LogicalOperator) -> bool:
    """Does this per-group subtree map the empty group to an empty output?

    Follows the paper's table exactly:

    * scan (GroupScan): True
    * select, project, distinct, groupby, orderby, exists: child's value
    * aggregate (our scalar GroupBy): False
    * apply: the value of the *outer* child
    * union / union all: True iff True for all children
    """
    if isinstance(node, GroupScan):
        return True
    if isinstance(node, (Select, Project, Prune, Remap, Alias, Distinct, OrderBy, Exists, Limit)):
        return empty_on_empty(node.children()[0])
    if isinstance(node, GroupBy):
        if node.is_scalar_aggregate:
            return False
        return empty_on_empty(node.child)
    if isinstance(node, Apply):
        return empty_on_empty(node.outer)
    if isinstance(node, (Union, UnionAll)):
        return all(empty_on_empty(child) for child in node.children())
    if isinstance(node, GApply):
        # A nested GApply partitions its input; no rows -> no groups -> empty.
        return empty_on_empty(node.outer)
    if isinstance(node, Join):
        # An inner join with an empty input is empty.
        return empty_on_empty(node.left) or empty_on_empty(node.right)
    if isinstance(node, TableScan):
        # A base-table scan does not depend on the group at all; it is not
        # empty on an empty group. (The paper's PGQ grammar excludes this.)
        return False
    raise OptimizerError(
        f"emptyOnEmpty not defined for {type(node).__name__}"
    )


# ----------------------------------------------------------------------
# Covering ranges (Theorem 1)
# ----------------------------------------------------------------------


def _has_blocking_descendant(node: LogicalOperator) -> bool:
    """Does the subtree under ``node`` contain apply, groupby or aggregate?

    A selection sitting above such an operator filters *derived* rows, not
    group rows, so its condition cannot join the covering range.
    """
    for descendant in node.walk():
        if descendant is node:
            continue
        if isinstance(descendant, (Apply, GroupBy, GApply)):
            return True
    return False


def covering_range(node: LogicalOperator) -> Expression | None:
    """The covering range of ``node`` as a condition on the group tuples.

    ``None`` means *true* — the operator needs the whole group. The rules
    from the paper:

    * scan: true (the whole group)
    * select: child's range ANDed with its own condition, unless it has an
      apply/groupby/aggregate descendant, in which case just the child's
    * other unary operators: the child's range
    * apply, union, union all: the disjunction of the children's ranges
    """
    if isinstance(node, GroupScan):
        return None
    if isinstance(node, Limit):
        return None
    if isinstance(node, Select):
        child_range = covering_range(node.child)
        if _has_blocking_descendant(node):
            return child_range
        # Condition may reference columns computed by an Apply below; those
        # are not group columns, so such a select cannot tighten the range.
        if not _references_only_group_columns(node):
            return child_range
        return conjoin([c for c in (child_range, node.predicate) if c is not None])
    if isinstance(node, (Project, Prune, Remap, Alias, Distinct, OrderBy, Exists, GroupBy)):
        return covering_range(node.children()[0])
    if isinstance(node, Apply):
        return _disjoin_ranges(
            [covering_range(child) for child in node.children()]
        )
    if isinstance(node, (Union, UnionAll)):
        return _disjoin_ranges(
            [covering_range(child) for child in node.children()]
        )
    if isinstance(node, GApply):
        return covering_range(node.outer)
    if isinstance(node, Join):
        return _disjoin_ranges([covering_range(c) for c in node.children()])
    if isinstance(node, TableScan):
        # Independent of the group: contributes nothing, i.e. range false?
        # Being conservative (range true) is always sound.
        return None
    raise OptimizerError(
        f"covering range not defined for {type(node).__name__}"
    )


def _references_only_group_columns(select: Select) -> bool:
    """A select whose predicate mentions columns that are not in the group
    schema (e.g. appended Apply outputs) cannot contribute to the range."""
    if select.predicate.parameters():
        # A correlated Parameter is bound per outer row by an enclosing
        # Apply; lifting it into the covering range would move it outside
        # the Apply that binds it (unbound at execution, and unsound).
        return False
    group_schema = None
    for descendant in select.walk():
        if isinstance(descendant, GroupScan):
            group_schema = descendant.group_schema
            break
    if group_schema is None:
        return False
    return all(group_schema.has(ref) for ref in select.predicate.columns())


def _disjoin_ranges(ranges: list[Expression | None]) -> Expression | None:
    """OR together child ranges; any *true* (None) child makes the result
    true. Structural duplicates collapse (p OR p = p), which keeps ranges
    from e.g. an Apply whose outer and inner filter identically tidy."""
    if any(r is None for r in ranges):
        return None
    unique: list[Expression] = []
    for candidate in ranges:
        if candidate not in unique:
            unique.append(candidate)
    if not unique:
        return None
    if len(unique) == 1:
        return unique[0]
    return Or(*unique)


# ----------------------------------------------------------------------
# Column requirement analyses
# ----------------------------------------------------------------------


def referenced_columns(node: LogicalOperator) -> frozenset[str]:
    """Every group column referenced anywhere in the per-group query.

    This is the set the projection-before-GApply rule must retain (plus the
    grouping columns). It includes projected columns — unlike gp-eval
    columns — because GApply's output must still produce them.
    """
    result: set[str] = set()
    for descendant in node.walk():
        if isinstance(descendant, Select):
            result |= descendant.predicate.columns()
        elif isinstance(descendant, Project):
            for expression, _ in descendant.items:
                result |= expression.columns()
        elif isinstance(descendant, Prune):
            result |= set(descendant.references)
        elif isinstance(descendant, Remap):
            result |= {reference for reference, _ in descendant.items}
        elif isinstance(descendant, GroupBy):
            result |= set(descendant.keys)
            for aggregate in descendant.aggregates:
                result |= aggregate.columns()
        elif isinstance(descendant, OrderBy):
            result |= {reference for reference, _ in descendant.items}
        elif isinstance(descendant, Apply):
            result |= {reference for _, reference in descendant.bindings}
        elif isinstance(descendant, Join) and descendant.predicate is not None:
            result |= descendant.predicate.columns()
        elif isinstance(descendant, GApply):
            result |= set(descendant.grouping_columns)
    return frozenset(result)


def gp_eval_columns(node: LogicalOperator) -> frozenset[str]:
    """The paper's gp-eval columns: columns needed to *evaluate* the PGQ.

    Per-operator eval columns:

    * scan: empty set
    * select: child's ∪ selection-condition columns
    * groupby: child's ∪ grouping columns of the node ∪ returned (aggregated)
      columns
    * aggregate / orderby: child's ∪ aggregated / ordering columns
    * other unary operators: child's
    * apply: union of both children (plus correlation binding columns)
    * union / union all: union of all children

    Projected-but-not-aggregated columns are deliberately *excluded*: they
    can be re-attached by joins above the relocated GApply.
    """
    if isinstance(node, GroupScan):
        return frozenset()
    if isinstance(node, Select):
        return gp_eval_columns(node.child) | node.predicate.columns()
    if isinstance(node, GroupBy):
        result = set(gp_eval_columns(node.child))
        result |= set(node.keys)
        for aggregate in node.aggregates:
            result |= aggregate.columns()
        return frozenset(result)
    if isinstance(node, OrderBy):
        return gp_eval_columns(node.child) | {
            reference for reference, _ in node.items
        }
    if isinstance(node, (Project, Prune, Remap, Alias, Distinct, Exists, Limit)):
        return gp_eval_columns(node.children()[0])
    if isinstance(node, Apply):
        result = set(gp_eval_columns(node.outer)) | set(
            gp_eval_columns(node.inner)
        )
        result |= {reference for _, reference in node.bindings}
        return frozenset(result)
    if isinstance(node, (Union, UnionAll)):
        result: set[str] = set()
        for child in node.children():
            result |= gp_eval_columns(child)
        return frozenset(result)
    if isinstance(node, GApply):
        return (
            gp_eval_columns(node.outer)
            | set(node.grouping_columns)
            | gp_eval_columns(node.per_group)
        )
    if isinstance(node, Join):
        result = set()
        for child in node.children():
            result |= gp_eval_columns(child)
        if node.predicate is not None:
            result |= node.predicate.columns()
        return frozenset(result)
    if isinstance(node, TableScan):
        return frozenset()
    raise OptimizerError(
        f"gp-eval columns not defined for {type(node).__name__}"
    )


# ----------------------------------------------------------------------
# Invariant grouping (Definition 2 / Theorem 2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class JoinTreeNode:
    """One node of the left-deep join tree under a GApply outer child.

    ``operator`` points into the original plan; ``joins_above`` lists the
    Join ancestors between this node and the GApply (nearest first).
    """

    operator: LogicalOperator
    joins_above: tuple[Join, ...]


def left_deep_nodes(root: LogicalOperator) -> list[JoinTreeNode]:
    """Enumerate candidate placements in a left-deep join tree.

    Walks left children of joins, collecting the chain of joins above each
    node. The root itself (no joins above) is included first.
    """
    nodes = [JoinTreeNode(root, ())]
    joins: list[Join] = []
    current = root
    while isinstance(current, Join):
        joins.append(current)
        current = current.left
        nodes.append(JoinTreeNode(current, tuple(joins)))
    return nodes


def _base_binding(node: LogicalOperator) -> TableScan | None:
    """The single base table a join input ultimately scans, if discernible
    through selections/prunes (the paper's annotated-join-tree leaves)."""
    current = node
    while isinstance(current, (Select, Prune)):
        current = current.children()[0]
    if isinstance(current, TableScan):
        return current
    return None


def is_foreign_key_join(join: Join, catalog: Catalog) -> bool:
    """Is ``join`` a key/foreign-key equijoin with the FK on the *left*
    (outer) child, per the paper's definition?

    The left child must expose a declared foreign key to the right child's
    primary key, the equijoin pairs must cover exactly that FK, and the
    right child must be a bare (possibly filtered) base-table scan so that
    key semantics actually hold.
    """
    if join.kind != JoinKind.INNER or join.predicate is None:
        return False
    pairs = join.equijoin_pairs()
    if not pairs:
        return False
    right_scan = _base_binding(join.right)
    if right_scan is None:
        return False
    # Identify which base table each left-side column belongs to by
    # resolving through the left schema's qualifiers.
    left_schema = join.left.schema
    child_columns: list[str] = []
    parent_columns: list[str] = []
    child_qualifiers: set[str | None] = set()
    for left_ref, right_ref in pairs:
        left_column = left_schema.column(left_ref)
        right_column = join.right.schema.column(right_ref)
        child_columns.append(left_column.name)
        parent_columns.append(right_column.name)
        child_qualifiers.add(left_column.qualifier)
    if len(child_qualifiers) != 1:
        return False
    child_qualifier = next(iter(child_qualifiers))
    if child_qualifier is None:
        return False
    # The qualifier is the alias; find the underlying base table name by
    # scanning the left subtree for the TableScan with this binding name.
    child_table = None
    for descendant in join.left.walk():
        if isinstance(descendant, TableScan) and descendant.binding_name == child_qualifier:
            child_table = descendant.table_name
            break
    if child_table is None:
        return False
    parent_table = right_scan.table_name
    if not catalog.has_table(child_table) or not catalog.has_table(parent_table):
        return False
    fk = catalog.find_foreign_key(
        child_table, child_columns, parent_table, parent_columns
    )
    if fk is None:
        return False
    # The join must also hit the parent's full primary key, otherwise a
    # single left row could match several right rows.
    return catalog.is_primary_key(parent_table, parent_columns)


def join_columns(node: JoinTreeNode) -> frozenset[str]:
    """Columns of ``node`` participating in join predicates above it
    (Definition 1's *join columns*)."""
    schema = node.operator.schema
    result: set[str] = set()
    for join in node.joins_above:
        if join.predicate is None:
            continue
        for reference in join.predicate.columns():
            if schema.has(reference):
                result.add(reference)
    return frozenset(result)


def invariant_grouping_node(
    gapply: GApply, catalog: Catalog
) -> JoinTreeNode | None:
    """Find the deepest node with the invariant grouping property.

    Definition 2: a node ``n`` qualifies when (1) its columns contain the
    grouping columns and the gp-eval columns, (2) every join column of ``n``
    is a grouping column, and (3) every join above ``n`` is a foreign-key
    join. Returns the *deepest* such node strictly below the root (pushing
    to the root is a no-op), or ``None``.
    """
    outer_schema = gapply.outer.schema
    required = set(gapply.grouping_columns)
    for reference in gp_eval_columns(gapply.per_group):
        # gp-eval columns computed *inside* the per-group query (aggregate
        # outputs, subquery results) are not group columns; only references
        # into the outer query constrain the placement.
        if outer_schema.has(reference):
            required.add(reference)
    candidates = left_deep_nodes(gapply.outer)
    best: JoinTreeNode | None = None
    grouping = set(gapply.grouping_columns)
    for node in candidates[1:]:  # skip the root placement
        schema = node.operator.schema
        if not all(schema.has(reference) for reference in required):
            continue
        jc = join_columns(node)
        if not jc <= _expand_references(schema, grouping):
            continue
        if not all(
            is_foreign_key_join(join, catalog) for join in node.joins_above
        ):
            continue
        best = node  # deeper nodes come later in the enumeration
    return best


def _expand_references(schema, references: set[str]) -> frozenset[str]:
    """All reference spellings (bare and qualified) for the given columns
    resolvable in ``schema`` — join predicates may use either spelling."""
    result: set[str] = set()
    for reference in references:
        if not schema.has(reference):
            continue
        column = schema.column(reference)
        result.add(reference)
        result.add(column.name)
        result.add(column.qualified_name)
    return frozenset(result)
