"""Logical algebra operators, including GApply.

The operator set is exactly the paper's (Section 3): scan, select, project,
distinct, join, groupby/aggregate, orderby, union(all), apply, exists — plus
**GApply** itself and **GroupScan**, the leaf that reads the temporary
relation bound to GApply's relation-valued ``$group`` parameter.

Design notes:

* Nodes are frozen dataclasses; rewrites build new trees. Structural
  equality is therefore free, which the optimizer's rule tests rely on.
* A node's children are its operator-typed fields, in field order: no
  class lists them. ``children``, ``with_children``, ``walk`` and
  ``transform_up`` come from the one field classification in
  :mod:`repro.algebra.tree`, as does the optimizer's interning key (the
  other fields).
* Every node derives and caches its output :class:`Schema` at construction,
  so rewritten trees are schema-checked immediately and no catalog is needed
  after the initial TableScan leaves are built.
* ``GroupBy`` with an empty key list is the paper's scalar *aggregate*
  operator: it emits exactly one row even for empty input (``count(*) = 0``),
  which is the whole reason the emptyOnEmpty analysis exists.
* The per-group query of :class:`GApply` is an operator tree whose leaf is a
  :class:`GroupScan` naming the group variable. Correlated subqueries inside
  it are modelled with :class:`Apply`, whose inner tree references
  :class:`~repro.algebra.expressions.Parameter` values bound per outer row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

from repro.errors import PlanError, SchemaError
from repro.algebra.expressions import (
    AggregateCall,
    Expression,
)
from repro.algebra.tree import layouts, lazy_children, rewrite, walk
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import common_type


@dataclass(frozen=True)
class LogicalOperator:
    """Base class for logical plan nodes."""

    @property
    def schema(self) -> Schema:
        raise NotImplementedError

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "children" not in cls.__dict__:
            cls.children = lazy_children(cls, _LAYOUTS)

    def children(self) -> tuple["LogicalOperator", ...]:
        """The operator-typed fields, in field order (see
        :mod:`repro.algebra.tree`)."""
        return _LAYOUTS[type(self)].children(self)

    def with_children(
        self, children: Sequence["LogicalOperator"]
    ) -> "LogicalOperator":
        """Rebuild this node over new children (same arity)."""
        return _LAYOUTS[type(self)].rebuild(self, children)

    # ------------------------------------------------------------------
    # Tree utilities
    # ------------------------------------------------------------------

    def walk(self) -> Iterator["LogicalOperator"]:
        """Pre-order traversal of this subtree."""
        return walk(self, OPERATOR)

    def contains(self, kind: type) -> bool:
        return any(isinstance(node, kind) for node in self.walk())

    def transform_up(
        self, fn: Callable[["LogicalOperator"], "LogicalOperator"]
    ) -> "LogicalOperator":
        """Bottom-up rewrite: children first, then ``fn`` on the rebuilt node
        (a node is rebuilt only when a child changed)."""
        return rewrite(self, OPERATOR, fn)

    def pretty(self, indent: int = 0) -> str:
        """Indented multi-line rendering of the plan tree."""
        pad = "  " * indent
        lines = [pad + self.label()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def label(self) -> str:
        return type(self).__name__

    def node_count(self) -> int:
        return sum(1 for _ in self.walk())


#: The kinds of a traversal of one plan: operator-typed fields are children.
OPERATOR = (LogicalOperator,)
_LAYOUTS = layouts(OPERATOR)


@dataclass(frozen=True)
class TableScan(LogicalOperator):
    """Scan of a base table; ``alias`` re-qualifies the output columns."""

    table_name: str
    table_schema: Schema
    alias: str | None = None

    @staticmethod
    def of(table: Table, alias: str | None = None) -> "TableScan":
        return TableScan(table.name, table.schema, alias)

    @cached_property
    def schema(self) -> Schema:
        qualifier = self.alias or self.table_name
        return self.table_schema.qualify(qualifier)

    @property
    def binding_name(self) -> str:
        return self.alias or self.table_name

    def label(self) -> str:
        if self.alias and self.alias != self.table_name:
            return f"TableScan({self.table_name} AS {self.alias})"
        return f"TableScan({self.table_name})"


@dataclass(frozen=True)
class GroupScan(LogicalOperator):
    """Leaf of a per-group query: reads the relation bound to ``variable``.

    The schema is fixed when the GApply is built (it equals the GApply outer
    child's schema) and is *updated by optimizer rules* that shrink the
    outer query's projection.
    """

    variable: str
    group_schema: Schema

    @cached_property
    def schema(self) -> Schema:
        return self.group_schema

    def label(self) -> str:
        return f"GroupScan(${self.variable})"


@dataclass(frozen=True)
class Select(LogicalOperator):
    """Filter: keep rows where ``predicate`` evaluates to TRUE."""

    child: LogicalOperator
    predicate: Expression

    @cached_property
    def schema(self) -> Schema:
        # Validate the predicate's column references eagerly.
        for reference in self.predicate.columns():
            self.child.schema.index_of(reference)
        return self.child.schema

    def label(self) -> str:
        return f"Select[{self.predicate}]"


@dataclass(frozen=True)
class Project(LogicalOperator):
    """Projection (no duplicate elimination — multiset semantics).

    ``items`` is a sequence of ``(expression, output_name)`` pairs.
    """

    child: LogicalOperator
    items: tuple[tuple[Expression, str], ...]

    @cached_property
    def schema(self) -> Schema:
        columns = []
        child_schema = self.child.schema
        for expression, name in self.items:
            for reference in expression.columns():
                child_schema.index_of(reference)
            columns.append(Column(name, expression.infer(child_schema)))
        return Schema(columns)

    def label(self) -> str:
        inner = ", ".join(
            f"{expr} AS {name}" if str(expr) != name else name
            for expr, name in self.items
        )
        return f"Project[{inner}]"


def project_columns(
    child: LogicalOperator, references: Sequence[str]
) -> Project:
    """Projection that passes named columns through under their bare names."""
    from repro.algebra.expressions import ColumnRef

    items = []
    for reference in references:
        column = child.schema.column(reference)
        items.append((ColumnRef(reference), column.name))
    return Project(child, tuple(items))


@dataclass(frozen=True)
class Prune(LogicalOperator):
    """Column pruning that *preserves qualifiers*.

    A plain :class:`Project` names its outputs with bare names, which would
    break qualified references (``part.p_retailprice``) in a per-group query
    after the projection-before-GApply rule narrows the outer query. Prune
    keeps the original :class:`Column` objects, so every reference that
    resolved before still resolves afterwards.
    """

    child: LogicalOperator
    references: tuple[str, ...]

    @cached_property
    def schema(self) -> Schema:
        return self.child.schema.project(self.references)

    def label(self) -> str:
        return f"Prune[{', '.join(self.references)}]"


class JoinKind:
    """Join kinds; the paper's rules only concern INNER (and CROSS) joins."""

    INNER = "inner"
    CROSS = "cross"
    LEFT_OUTER = "left_outer"
    SEMI = "semi"
    ANTI = "anti"


@dataclass(frozen=True)
class Join(LogicalOperator):
    """Annotated join node: kind + optional predicate over both inputs."""

    left: LogicalOperator
    right: LogicalOperator
    predicate: Expression | None = None
    kind: str = JoinKind.INNER

    @cached_property
    def schema(self) -> Schema:
        combined = self.left.schema.concat(self.right.schema)
        if self.predicate is not None:
            for reference in self.predicate.columns():
                combined.index_of(reference)
        if self.kind in (JoinKind.SEMI, JoinKind.ANTI):
            return self.left.schema
        return combined

    def equijoin_pairs(self) -> list[tuple[str, str]]:
        """Column pairs (left_ref, right_ref) from top-level equality
        conjuncts; used for hash-join planning and FK-join detection."""
        from repro.algebra.expressions import (
            ColumnRef,
            Comparison,
            ComparisonOp,
            conjuncts,
        )

        pairs: list[tuple[str, str]] = []
        left_schema = self.left.schema
        right_schema = self.right.schema
        for conjunct in conjuncts(self.predicate):
            if not (
                isinstance(conjunct, Comparison)
                and conjunct.op is ComparisonOp.EQ
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, ColumnRef)
            ):
                continue
            a, b = conjunct.left.name, conjunct.right.name
            if left_schema.has(a) and right_schema.has(b):
                pairs.append((a, b))
            elif left_schema.has(b) and right_schema.has(a):
                pairs.append((b, a))
        return pairs

    def label(self) -> str:
        predicate = "" if self.predicate is None else f"[{self.predicate}]"
        return f"Join:{self.kind}{predicate}"


@dataclass(frozen=True)
class GroupBy(LogicalOperator):
    """Grouping + aggregation.

    ``keys`` are column references; the output is one row per distinct key
    combination carrying the keys followed by the aggregate results. With no
    keys this is the scalar aggregate operator: exactly one output row, even
    on empty input.
    """

    child: LogicalOperator
    keys: tuple[str, ...]
    aggregates: tuple[AggregateCall, ...]

    @cached_property
    def schema(self) -> Schema:
        child_schema = self.child.schema
        columns = [child_schema.column(key) for key in self.keys]
        for aggregate in self.aggregates:
            for reference in aggregate.columns():
                child_schema.index_of(reference)
            columns.append(
                Column(aggregate.output_name(), aggregate.result_type(child_schema))
            )
        return Schema(columns)

    @property
    def is_scalar_aggregate(self) -> bool:
        return not self.keys

    def label(self) -> str:
        keys = ", ".join(self.keys)
        aggs = ", ".join(str(a) for a in self.aggregates)
        if not keys:
            return f"Aggregate[{aggs}]"
        return f"GroupBy[{keys}][{aggs}]"


@dataclass(frozen=True)
class Distinct(LogicalOperator):
    """Duplicate elimination over whole rows (the paper's explicit distinct)."""

    child: LogicalOperator

    @cached_property
    def schema(self) -> Schema:
        return self.child.schema


@dataclass(frozen=True)
class OrderBy(LogicalOperator):
    """Sort; ``items`` are (column reference, ascending) pairs.

    For publishing it provides the key order of the document (DESIGN.md
    §7) and the *clustering* that the constant-space tagger needs.
    """

    child: LogicalOperator
    items: tuple[tuple[str, bool], ...]

    @cached_property
    def schema(self) -> Schema:
        for reference, _ in self.items:
            self.child.schema.index_of(reference)
        return self.child.schema

    def label(self) -> str:
        inner = ", ".join(
            f"{ref}{'' if asc else ' DESC'}" for ref, asc in self.items
        )
        return f"OrderBy[{inner}]"


def _union_schema(children: Sequence[LogicalOperator]) -> Schema:
    if not children:
        raise PlanError("union requires at least one child")
    first = children[0].schema
    widths = {len(child.schema) for child in children}
    if len(widths) != 1:
        raise SchemaError(f"union children have differing widths: {widths}")
    columns = []
    for position, column in enumerate(first):
        dtype = column.dtype
        for child in children[1:]:
            dtype = common_type(dtype, child.schema[position].dtype)
        columns.append(Column(column.name, dtype))
    return Schema(columns)


@dataclass(frozen=True)
class UnionAll(LogicalOperator):
    """Bag union: concatenation of the children's outputs."""

    inputs: tuple[LogicalOperator, ...]

    @cached_property
    def schema(self) -> Schema:
        return _union_schema(self.inputs)


@dataclass(frozen=True)
class Union(LogicalOperator):
    """Set union: bag union followed by duplicate elimination."""

    inputs: tuple[LogicalOperator, ...]

    @cached_property
    def schema(self) -> Schema:
        return _union_schema(self.inputs)


@dataclass(frozen=True)
class Exists(LogicalOperator):
    """The paper's exists operator: {phi} if the input is non-empty, else phi.

    Appears only as the inner child of :class:`Apply` (the paper assumes the
    same). ``negated`` gives NOT EXISTS. The output schema is the null schema.
    """

    child: LogicalOperator
    negated: bool = False

    @cached_property
    def schema(self) -> Schema:
        return Schema(())

    def label(self) -> str:
        return "NotExists" if self.negated else "Exists"


@dataclass(frozen=True)
class Apply(LogicalOperator):
    """Correlated apply: R A E = union over r in R of {r} x E(r).

    ``bindings`` maps parameter names used inside ``inner`` to column
    references in ``outer``'s schema. For every outer row the executor binds
    the parameters and re-evaluates the inner plan.
    """

    outer: LogicalOperator
    inner: LogicalOperator
    bindings: tuple[tuple[str, str], ...] = ()

    @cached_property
    def schema(self) -> Schema:
        for _, reference in self.bindings:
            self.outer.schema.index_of(reference)
        inner_schema = self.inner.schema
        if len(inner_schema) == 0:
            return self.outer.schema
        # Inner columns are appended as-is; the binder gives subquery plans
        # fresh output names, so collisions indicate a malformed plan and
        # surface as a SchemaError here.
        return self.outer.schema.concat(inner_schema)

    def label(self) -> str:
        if not self.bindings:
            return "Apply"
        inner = ", ".join(f"${p}:={c}" for p, c in self.bindings)
        return f"Apply[{inner}]"


def gapply_output_schema(
    outer_schema: Schema,
    grouping_columns: Sequence[str],
    pgq_schema: Schema,
    group_variable: str,
) -> Schema:
    """Output schema of GApply: grouping columns crossed with PGQ output.

    The grouping-key copies keep their original column identity unless that
    would collide with a per-group output column (which happens whenever the
    per-group query returns the whole group, e.g. group-selection queries);
    colliding keys are re-qualified by the group variable, so the key copy
    of ``ps_suppkey`` becomes ``tmpSupp.ps_suppkey``.
    """
    pgq_names = {column.qualified_name for column in pgq_schema}
    key_columns = []
    for reference in grouping_columns:
        column = outer_schema.column(reference)
        if column.qualified_name in pgq_names:
            column = column.with_qualifier(group_variable)
        key_columns.append(column)
    return Schema(tuple(key_columns) + pgq_schema.columns)


@dataclass(frozen=True)
class GApply(LogicalOperator):
    """The paper's GApply(GCols, PGQ) operator.

    * ``outer`` produces the tuple stream to partition.
    * ``grouping_columns`` are resolved against ``outer``'s schema.
    * ``per_group`` is the PGQ operator tree; its leaves are
      :class:`GroupScan` nodes for ``group_variable`` whose schema must match
      ``outer``'s output (rules that prune outer columns must rewrite the
      GroupScan schema in the same step — see the projection rule).

    Output: grouping columns crossed with the per-group query result, unioned
    (UNION ALL) over all groups.
    """

    outer: LogicalOperator
    grouping_columns: tuple[str, ...]
    per_group: LogicalOperator
    group_variable: str = "group"

    @cached_property
    def schema(self) -> Schema:
        outer_schema = self.outer.schema
        for node in self.per_group.walk():
            if isinstance(node, GroupScan):
                if node.variable != self.group_variable:
                    raise PlanError(
                        f"per-group query reads ${node.variable}, expected "
                        f"${self.group_variable}"
                    )
                if node.group_schema != outer_schema:
                    raise PlanError(
                        "GroupScan schema does not match GApply outer schema:\n"
                        f"  group: {node.group_schema!r}\n"
                        f"  outer: {outer_schema!r}"
                    )
        return gapply_output_schema(
            outer_schema,
            self.grouping_columns,
            self.per_group.schema,
            self.group_variable,
        )

    def label(self) -> str:
        keys = ", ".join(self.grouping_columns)
        return f"GApply[{keys}; ${self.group_variable}]"

    def group_scans(self) -> list[GroupScan]:
        return [
            node for node in self.per_group.walk() if isinstance(node, GroupScan)
        ]


@dataclass(frozen=True)
class Limit(LogicalOperator):
    """Emit at most ``count`` rows (order-dependent only under OrderBy)."""

    child: LogicalOperator
    count: int

    @cached_property
    def schema(self) -> Schema:
        return self.child.schema

    def label(self) -> str:
        return f"Limit[{self.count}]"


@dataclass(frozen=True)
class Remap(LogicalOperator):
    """Column passthrough with full control of the output column identity.

    ``items`` pairs an input reference with the exact output
    :class:`Column` (name *and* qualifier). Used by rewrites that must
    reproduce a replaced subtree's output schema byte-for-byte — e.g. the
    invariant-grouping rule, which re-attaches columns dropped from the
    adapted per-group query via the joins above the relocated GApply.
    """

    child: LogicalOperator
    items: tuple[tuple[str, Column], ...]

    @cached_property
    def schema(self) -> Schema:
        child_schema = self.child.schema
        columns = []
        for reference, column in self.items:
            source = child_schema.column(reference)
            # Nullability may only be weakened (claiming NOT NULL for a
            # nullable source would be unsound; the reverse is fine).
            columns.append(
                Column(
                    column.name,
                    source.dtype,
                    column.qualifier,
                    column.nullable or source.nullable,
                )
            )
        return Schema(columns)

    def label(self) -> str:
        inner = ", ".join(
            f"{ref}->{column.qualified_name}" for ref, column in self.items
        )
        return f"Remap[{inner}]"


@dataclass(frozen=True)
class Alias(LogicalOperator):
    """Re-qualify a subtree's output columns (a derived-table alias).

    ``SELECT ... FROM (subquery) AS t`` binds the subquery's columns under
    qualifier ``t``; the group-selection rewrite also uses Alias to give the
    extracted group-id columns the group-variable qualifier so the rewrite's
    output schema matches the original GApply's exactly.
    """

    child: LogicalOperator
    name: str

    @cached_property
    def schema(self) -> Schema:
        return self.child.schema.qualify(self.name)

    def label(self) -> str:
        return f"Alias({self.name})"


def replace_group_scans(
    plan: LogicalOperator, new_schema: Schema
) -> LogicalOperator:
    """Rewrite every GroupScan in ``plan`` to read ``new_schema``.

    Helper for rules that change the GApply outer query's output shape.
    """

    def rewrite(node: LogicalOperator) -> LogicalOperator:
        if isinstance(node, GroupScan):
            return GroupScan(node.variable, new_schema)
        return node

    return plan.transform_up(rewrite)
