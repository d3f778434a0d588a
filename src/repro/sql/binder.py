"""Semantic analysis: AST -> logical algebra.

The binder resolves names, types SELECT lists, decorrelates subqueries into
:class:`~repro.algebra.operators.Apply` nodes (the paper's subquery model),
and turns the ``gapply``/``group by ... : x`` extension into a
:class:`~repro.algebra.operators.GApply` whose per-group query reads
:class:`~repro.algebra.operators.GroupScan` leaves.

Correlation: while binding a subquery, a column reference that fails to
resolve in the subquery's own scope but resolves in an enclosing scope
becomes a fresh :class:`~repro.algebra.expressions.Parameter`; the
(parameter, outer column) pairs accumulate on the subquery scope and become
the bindings of the Apply that splices the subquery into the outer plan —
exactly the correlated-subquery execution model of Section 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.algebra.expressions import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
    BindParameter,
    CaseWhen,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    Parameter,
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
    Select,
    TableScan,
    Union,
    UnionAll,
)
from repro.algebra.tree import rewrite, walk
from repro.errors import BindError
from repro.sql import ast as A
from repro.sql.parser import AGGREGATE_NAMES, parse
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema

_SUBQUERIES = (A.AstScalarSubquery, A.AstExists, A.AstInSubquery)


def _aggregate_key(node: A.AstFunction) -> object:
    """What equal aggregates share, to be computed once: the node itself,
    unless it holds a literal or a marker. A cached template has one
    marker per literal, so merging equal literals would give the literal
    query a plan its template cannot have; such an aggregate is its own."""
    for inner in walk(node, A.EXPRESSIONS):
        if isinstance(inner, (A.AstLiteral, A.AstParameter)):
            return id(node)
    return node


_AGG_MAP = {
    "count": AggregateFunction.COUNT,
    "sum": AggregateFunction.SUM,
    "avg": AggregateFunction.AVG,
    "min": AggregateFunction.MIN,
    "max": AggregateFunction.MAX,
}

_COMPARISON_MAP = {
    "=": ComparisonOp.EQ,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}

_ARITHMETIC_MAP = {
    "+": ArithmeticOp.ADD,
    "-": ArithmeticOp.SUB,
    "*": ArithmeticOp.MUL,
    "/": ArithmeticOp.DIV,
    "%": ArithmeticOp.MOD,
}


@dataclass
class Scope:
    """Name-resolution scope for one query block.

    ``correlations`` collects (parameter name, outer reference) pairs when
    expressions in this scope reach through to ``parent``.
    """

    schema: Schema
    parent: "Scope | None" = None
    correlations: list[tuple[str, str]] = field(default_factory=list)
    _param_counter: itertools.count = field(default_factory=itertools.count)

    def resolve(self, reference: str) -> Expression:
        if self.schema.has(reference):
            return ColumnRef(reference)
        if self.parent is not None:
            outer = self.parent.resolve(reference)
            if isinstance(outer, ColumnRef):
                parameter = self._correlate(outer.name)
                return parameter
            return outer  # already a parameter from a further-out scope
        raise BindError(
            f"unknown column {reference!r}; in scope: "
            + ", ".join(self.schema.qualified_names())
        )

    def _correlate(self, reference: str) -> Parameter:
        for name, existing in self.correlations:
            if existing == reference:
                return Parameter(name)
        name = f"corr_{reference.replace('.', '_')}_{next(self._param_counter)}"
        self.correlations.append((name, reference))
        return Parameter(name)


class Binder:
    """Bind AST queries against a catalog (plus group-variable env)."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._counter = itertools.count()

    def _fresh(self, prefix: str) -> str:
        return f"__{prefix}{next(self._counter)}"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def bind(self, query: A.AstQuery) -> LogicalOperator:
        """Bind a top-level query (no enclosing scope)."""
        plan = self.bind_query(query, outer_scope=None, relations={})
        # Schema derivation is lazy; force it now so resolution problems
        # (e.g. ambiguous bare names in projection lists) surface at bind
        # time rather than during planning.
        for node in plan.walk():
            node.schema
        return plan

    def bind_query(
        self,
        query: A.AstQuery,
        outer_scope: Scope | None,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        if len(query.selects) == 1:
            # Single-select queries may ORDER BY columns that are not in the
            # output (standard SQL); delegate ordering to bind_select, which
            # can sort before the final projection.
            return self.bind_select(
                query.selects[0],
                outer_scope,
                relations,
                order_by=query.order_by,
                limit=query.limit,
            )
        plans = [
            self.bind_select(select, outer_scope, relations)
            for select in query.selects
        ]
        widths = {len(p.schema) for p in plans}
        if len(widths) != 1:
            raise BindError(
                f"UNION branches have different widths: {sorted(widths)}"
            )
        normalized = [self._bare_names(p) for p in plans]
        plan = (
            UnionAll(tuple(normalized))
            if query.union_all
            else Union(tuple(normalized))
        )
        if query.order_by:
            items = []
            for reference, ascending in query.order_by:
                if not plan.schema.has(reference):
                    raise BindError(f"ORDER BY column {reference!r} not in output")
                items.append((reference, ascending))
            plan = OrderBy(plan, tuple(items))
        if query.limit is not None:
            plan = Limit(plan, query.limit)
        return plan

    def _bare_names(self, plan: LogicalOperator) -> LogicalOperator:
        """Rename output columns to unique bare names (UNION alignment)."""
        names = self._dedupe([c.name for c in plan.schema])
        if names == [c.qualified_name for c in plan.schema]:
            return plan
        items = tuple(
            (ColumnRef(column.qualified_name), name)
            for column, name in zip(plan.schema, names)
        )
        return Project(plan, items)

    @staticmethod
    def _dedupe(names: list[str]) -> list[str]:
        seen: dict[str, int] = {}
        result = []
        for name in names:
            count = seen.get(name, 0)
            seen[name] = count + 1
            result.append(name if count == 0 else f"{name}_{count + 1}")
        return result

    # ------------------------------------------------------------------
    # SELECT blocks
    # ------------------------------------------------------------------

    def bind_select(
        self,
        select: A.AstSelect,
        outer_scope: Scope | None,
        relations: dict[str, Schema],
        order_by: tuple[tuple[str, bool], ...] = (),
        limit: int | None = None,
    ) -> LogicalOperator:
        plan = self._bind_from(select.from_items, relations)
        scope = Scope(plan.schema, outer_scope)

        if select.where is not None:
            plan, scope = self._apply_where(plan, scope, select.where, relations)

        if select.gapply is not None:
            bound = self._bind_gapply(select, plan, scope, relations)
        else:
            source = plan
            bound = self._bind_projection(select, plan, scope, relations)
            if order_by and not all(bound.schema.has(r) for r, _ in order_by):
                # ORDER BY a source column not in the output: sort before
                # the projection (row-at-a-time operators preserve order).
                if (
                    all(source.schema.has(r) for r, _ in order_by)
                    and not select.group_by
                    and not select.distinct
                ):
                    rebuilt = self._bind_projection(
                        select,
                        OrderBy(source, tuple(order_by)),
                        Scope(source.schema, scope.parent, scope.correlations),
                        relations,
                    )
                    bound = rebuilt
                    order_by = ()
                else:
                    raise BindError(
                        "ORDER BY column not in output: "
                        + ", ".join(r for r, _ in order_by)
                    )
        if order_by:
            for reference, _ in order_by:
                if not bound.schema.has(reference):
                    raise BindError(
                        f"ORDER BY column {reference!r} not in output"
                    )
            bound = OrderBy(bound, tuple(order_by))
        if limit is not None:
            bound = Limit(bound, limit)
        return bound

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------

    def _bind_from(
        self,
        from_items: tuple[A.AstNode, ...],
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        if not from_items:
            raise BindError("FROM clause is required")
        plan = self._bind_from_item(from_items[0], relations)
        for item in from_items[1:]:
            right = self._bind_from_item(item, relations)
            plan = Join(plan, right, None, JoinKind.CROSS)
        return plan

    def _bind_from_item(
        self, item: A.AstNode, relations: dict[str, Schema]
    ) -> LogicalOperator:
        if isinstance(item, A.AstTableRef):
            if item.name in relations:
                # A group variable: scan of the bound temporary relation.
                if item.alias is not None and item.alias != item.name:
                    raise BindError(
                        f"group variable {item.name!r} cannot be aliased"
                    )
                return GroupScan(item.name, relations[item.name])
            table = self.catalog.table(item.name)
            return TableScan.of(table, item.alias)
        if isinstance(item, A.AstDerivedTable):
            child = self.bind_query(item.query, None, relations)
            if item.column_names:
                if len(item.column_names) != len(child.schema):
                    raise BindError(
                        f"derived table {item.alias!r} declares "
                        f"{len(item.column_names)} columns but the query "
                        f"produces {len(child.schema)}"
                    )
                items = tuple(
                    (ColumnRef(column.qualified_name), name)
                    for column, name in zip(child.schema, item.column_names)
                )
                child = Project(child, items)
            else:
                child = self._bare_names(child)
            return Alias(child, item.alias)
        if isinstance(item, A.AstJoin):
            left = self._bind_from_item(item.left, relations)
            right = self._bind_from_item(item.right, relations)
            combined = Scope(left.schema.concat(right.schema))
            predicate = (
                None
                if item.condition is None
                else self._bind_scalar(item.condition, combined, relations)
            )
            kind = JoinKind.CROSS if predicate is None else JoinKind.INNER
            return Join(left, right, predicate, kind)
        raise BindError(f"unsupported FROM item {type(item).__name__}")

    # ------------------------------------------------------------------
    # WHERE clause (incl. subquery decorrelation)
    # ------------------------------------------------------------------

    def _apply_where(
        self,
        plan: LogicalOperator,
        scope: Scope,
        where: A.AstExpression,
        relations: dict[str, Schema],
    ) -> tuple[LogicalOperator, Scope]:
        original_references = plan.schema.qualified_names()
        appended = False
        # Bind subquery-free conjuncts first and apply them *below* any
        # subquery Applies: the resulting selection sits on the Apply's
        # outer side, where the covering-range analysis can see it
        # (a selection above an Apply contributes nothing to the range).
        conjunct_list = self._ast_conjuncts(where)
        simple = [c for c in conjunct_list if not self._has_subquery(c)]
        complex_ = [c for c in conjunct_list if self._has_subquery(c)]
        if simple:
            bound = [self._bind_scalar(c, scope, relations) for c in simple]
            plan = Select(plan, conjoin(bound))
            scope = Scope(plan.schema, scope.parent, scope.correlations)
        plain: list[Expression] = []
        for conjunct in complex_:
            handled, plan, scope, added = self._bind_where_conjunct(
                conjunct, plan, scope, relations
            )
            appended = appended or added
            if handled is not None:
                plain.append(handled)
        predicate = conjoin(plain)
        if predicate is not None:
            plan = Select(plan, predicate)
        if appended:
            # Drop internal subquery-result columns appended by Apply.
            plan = Prune(plan, tuple(original_references))
            scope = Scope(plan.schema, scope.parent, scope.correlations)
        return plan, scope

    @staticmethod
    def _has_subquery(node: A.AstExpression) -> bool:
        """Whether an AST expression contains any kind of subquery."""
        return any(isinstance(n, _SUBQUERIES) for n in walk(node, A.EXPRESSIONS))

    @staticmethod
    def _ast_conjuncts(expression: A.AstExpression) -> list[A.AstExpression]:
        if isinstance(expression, A.AstBinary) and expression.op == "and":
            return Binder._ast_conjuncts(expression.left) + Binder._ast_conjuncts(
                expression.right
            )
        return [expression]

    def _bind_where_conjunct(
        self,
        conjunct: A.AstExpression,
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> tuple[Expression | None, LogicalOperator, Scope, bool]:
        """Returns (residual predicate, plan, scope, appended_columns)."""
        negated = False
        node = conjunct
        if isinstance(node, A.AstUnary) and node.op == "not":
            if isinstance(node.operand, A.AstExists):
                negated = True
                node = node.operand
        if isinstance(node, A.AstExists):
            plan = self._bind_exists(
                node.subquery, plan, scope, relations, node.negated or negated
            )
            return None, plan, Scope(plan.schema, scope.parent, scope.correlations), False
        if isinstance(node, A.AstInSubquery):
            plan = self._bind_in_subquery(node, plan, scope, relations)
            return None, plan, Scope(plan.schema, scope.parent, scope.correlations), False
        expression, plan, appended = self._bind_with_scalar_subqueries(
            conjunct, plan, scope, relations
        )
        if appended:
            scope = Scope(plan.schema, scope.parent, scope.correlations)
        return expression, plan, scope, appended

    def _bind_exists(
        self,
        subquery: A.AstQuery,
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
        negated: bool,
    ) -> LogicalOperator:
        sub_scope = Scope(Schema(()), parent=scope)
        inner = self._bind_correlated_query(subquery, sub_scope, relations)
        bindings = tuple(sub_scope.correlations)
        return Apply(plan, Exists(inner, negated), bindings)

    def _bind_in_subquery(
        self,
        node: A.AstInSubquery,
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        sub_scope = Scope(Schema(()), parent=scope)
        inner = self._bind_correlated_query(node.subquery, sub_scope, relations)
        if len(inner.schema) != 1:
            raise BindError("IN subquery must produce exactly one column")
        operand = self._bind_scalar_in_subscope(node.operand, sub_scope, relations)
        inner_column = ColumnRef(inner.schema[0].qualified_name)
        test = Comparison(ComparisonOp.EQ, inner_column, operand)
        if node.negated:
            # SQL three-valued logic: ``x NOT IN S`` is UNKNOWN (so the row
            # is filtered) when x is NULL and S is non-empty, or when S
            # contains a NULL and no definite match. Widening the match
            # test to "equal OR either side NULL" makes plain NOT EXISTS
            # implement exactly that: any widened match kills the row,
            # while an empty S keeps it.
            test = Or(test, IsNull(inner_column), IsNull(operand))
        filtered = Select(inner, test)
        bindings = tuple(sub_scope.correlations)
        return Apply(plan, Exists(filtered, node.negated), bindings)

    def _bind_scalar_in_subscope(
        self,
        expression: A.AstExpression,
        sub_scope: Scope,
        relations: dict[str, Schema],
    ) -> Expression:
        """Bind an outer-side expression *inside* the subquery scope, so its
        column references become correlation parameters."""
        return self._bind_scalar(expression, sub_scope, relations)

    def _bind_correlated_query(
        self,
        subquery: A.AstQuery,
        sub_scope: Scope,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        """Bind a subquery whose correlations accumulate on ``sub_scope``.

        The subquery's own FROM scope chains to ``sub_scope`` (which has an
        empty schema and chains to the outer row scope), so unresolved names
        inside fall through and correlate.
        """
        if (
            len(subquery.selects) == 1
            and not subquery.order_by
            and subquery.limit is None
        ):
            return self._bind_select_correlated(
                subquery.single, sub_scope, relations
            )
        # Unions of correlated branches: bind each branch against sub_scope.
        plans = [
            self._bind_select_correlated(select, sub_scope, relations)
            for select in subquery.selects
        ]
        if len(plans) == 1:
            plan = plans[0]
        else:
            plans = [self._bare_names(p) for p in plans]
            plan = (
                UnionAll(tuple(plans))
                if subquery.union_all
                else Union(tuple(plans))
            )
        if subquery.order_by:
            plan = OrderBy(plan, tuple(subquery.order_by))
        if subquery.limit is not None:
            plan = Limit(plan, subquery.limit)
        return plan

    def _bind_select_correlated(
        self,
        select: A.AstSelect,
        sub_scope: Scope,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        plan = self._bind_from(select.from_items, relations)
        scope = Scope(plan.schema, parent=sub_scope)
        if select.where is not None:
            plan, scope = self._apply_where(plan, scope, select.where, relations)
        if select.gapply is not None:
            raise BindError("gapply is not allowed inside subqueries")
        bound = self._bind_projection(select, plan, scope, relations)
        # Correlations found while binding this block bubble to sub_scope
        # automatically (scope.parent chain); nothing else to do.
        return bound

    def _bind_with_scalar_subqueries(
        self,
        expression: A.AstExpression,
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> tuple[Expression, LogicalOperator, bool]:
        """Bind an expression, splicing scalar subqueries in as Applies."""
        collected: list[tuple[str, A.AstQuery]] = []

        def replace(node: A.AstExpression) -> A.AstExpression:
            if isinstance(node, A.AstScalarSubquery):
                name = self._fresh("sq")
                collected.append((name, node.subquery))
                return A.AstColumn(name)
            return node

        rewritten = rewrite(expression, A.EXPRESSIONS, replace)
        appended = False
        current_scope = scope
        for name, subquery in collected:
            sub_scope = Scope(Schema(()), parent=current_scope)
            inner = self._bind_correlated_query(subquery, sub_scope, relations)
            if len(inner.schema) != 1:
                raise BindError("scalar subquery must produce exactly one column")
            inner = Project(
                inner, ((ColumnRef(inner.schema[0].qualified_name), name),)
            )
            plan = Apply(plan, inner, tuple(sub_scope.correlations))
            current_scope = Scope(plan.schema, scope.parent, scope.correlations)
            appended = True
        bound = self._bind_scalar(rewritten, current_scope, relations)
        return bound, plan, appended

    # ------------------------------------------------------------------
    # GApply selects
    # ------------------------------------------------------------------

    def _bind_gapply(
        self,
        select: A.AstSelect,
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        if select.group_variable is None:
            raise BindError(
                "gapply requires a group variable: GROUP BY cols : var"
            )
        if not select.group_by:
            raise BindError("gapply requires at least one grouping column")
        if select.having is not None:
            raise BindError("HAVING is not allowed with gapply")
        variable = select.group_variable
        outer_schema = plan.schema
        for reference in select.group_by:
            outer_schema.index_of(reference)  # validate eagerly

        inner_relations = dict(relations)
        inner_relations[variable] = outer_schema
        per_group = self.bind_query(
            select.gapply.query, outer_scope=scope.parent, relations=inner_relations
        )
        if select.gapply.column_names:
            names = select.gapply.column_names
            if len(names) == len(per_group.schema):
                items = tuple(
                    (ColumnRef(column.qualified_name), name)
                    for column, name in zip(per_group.schema, names)
                )
                per_group = Project(per_group, items)
            else:
                raise BindError(
                    f"gapply AS clause names {len(names)} columns but the "
                    f"per-group query produces {len(per_group.schema)}"
                )
        return GApply(plan, tuple(select.group_by), per_group, variable)

    # ------------------------------------------------------------------
    # Projection / aggregation
    # ------------------------------------------------------------------

    def _bind_projection(
        self,
        select: A.AstSelect,
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        # `select *` alone passes the input through unchanged (qualifiers
        # preserved). Besides avoiding a useless Project, this keeps
        # whole-group-returning per-group queries (`select * from g where
        # exists(...)`) in the canonical shape the group-selection rules
        # match.
        if (
            len(select.items) == 1
            and isinstance(select.items[0].expression, A.AstStar)
            and select.items[0].expression.qualifier is None
            and not select.group_by
            and select.having is None
        ):
            return Distinct(plan) if select.distinct else plan
        items = self._expand_stars(select.items, plan.schema)
        aggregates = self._collect_aggregates(items, select.having)
        if select.group_by or aggregates:
            plan = self._bind_aggregation(
                select, plan, scope, items, aggregates, relations
            )
        else:
            plan = self._bind_plain_projection(items, plan, scope, relations)
        if select.distinct:
            plan = Distinct(plan)
        return plan

    def _expand_stars(
        self, items: tuple[A.AstSelectItem, ...], schema: Schema
    ) -> list[A.AstSelectItem]:
        expanded: list[A.AstSelectItem] = []
        for item in items:
            if isinstance(item.expression, A.AstStar):
                qualifier = item.expression.qualifier
                for column in schema:
                    if qualifier is not None and column.qualifier != qualifier:
                        continue
                    expanded.append(
                        A.AstSelectItem(
                            A.AstColumn(column.qualified_name), column.name
                        )
                    )
                if qualifier is not None and not any(
                    column.qualifier == qualifier for column in schema
                ):
                    raise BindError(f"unknown qualifier {qualifier!r} in select *")
            else:
                expanded.append(item)
        if not expanded:
            raise BindError("empty select list")
        return expanded

    def _collect_aggregates(
        self,
        items: list[A.AstSelectItem],
        having: A.AstExpression | None,
    ) -> list[A.AstFunction]:
        found: dict[object, A.AstFunction] = {}

        def visit(node: A.AstExpression) -> A.AstExpression:
            if isinstance(node, A.AstFunction) and node.name in AGGREGATE_NAMES:
                found.setdefault(_aggregate_key(node), node)
            return node

        # Subqueries are separate scopes: A.EXPRESSIONS does not enter them.
        for item in items:
            rewrite(item.expression, A.EXPRESSIONS, visit)
        if having is not None:
            rewrite(having, A.EXPRESSIONS, visit)
        return list(found.values())

    def _bind_aggregation(
        self,
        select: A.AstSelect,
        plan: LogicalOperator,
        scope: Scope,
        items: list[A.AstSelectItem],
        aggregates: list[A.AstFunction],
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        # 1. Build AggregateCalls with internal aliases.
        agg_aliases: dict[object, str] = {}
        calls: list[AggregateCall] = []
        for aggregate in aggregates:
            alias = self._fresh("agg")
            agg_aliases[_aggregate_key(aggregate)] = alias
            if aggregate.star:
                calls.append(
                    AggregateCall(AggregateFunction.COUNT_STAR, None, alias=alias)
                )
                continue
            if len(aggregate.args) != 1:
                raise BindError(
                    f"{aggregate.name}() takes exactly one argument"
                )
            argument = self._bind_scalar(aggregate.args[0], scope, relations)
            calls.append(
                AggregateCall(
                    _AGG_MAP[aggregate.name],
                    argument,
                    aggregate.distinct,
                    alias,
                )
            )

        # 2. Group.
        for reference in select.group_by:
            plan.schema.index_of(reference)
        grouped = GroupBy(plan, tuple(select.group_by), tuple(calls))
        grouped_scope = Scope(grouped.schema, scope.parent, scope.correlations)

        # 3. HAVING.
        result: LogicalOperator = grouped
        if select.having is not None:
            having = self._bind_scalar(
                self._replace_aggregates(select.having, agg_aliases),
                grouped_scope,
                relations,
            )
            result = Select(result, having)

        # 4. Final projection.
        out_items = []
        for index, item in enumerate(items):
            rewritten = self._replace_aggregates(item.expression, agg_aliases)
            expression = self._bind_scalar(rewritten, grouped_scope, relations)
            out_items.append(
                (expression, self._output_name(item, expression, index))
            )
        return Project(result, self._dedupe_items(out_items))

    def _replace_aggregates(
        self,
        node: A.AstExpression,
        agg_aliases: dict[object, str],
    ) -> A.AstExpression:
        def visit(expression: A.AstExpression) -> A.AstExpression:
            if isinstance(expression, A.AstFunction):
                alias = agg_aliases.get(_aggregate_key(expression))
                if alias is not None:
                    return A.AstColumn(alias)
            return expression

        return rewrite(node, A.EXPRESSIONS, visit)

    def _bind_plain_projection(
        self,
        items: list[A.AstSelectItem],
        plan: LogicalOperator,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> LogicalOperator:
        out_items = []
        appended = False
        for index, item in enumerate(items):
            expression, plan, added = self._bind_with_scalar_subqueries(
                item.expression, plan, scope, relations
            )
            if added:
                scope = Scope(plan.schema, scope.parent, scope.correlations)
                appended = True
            out_items.append(
                (expression, self._output_name(item, expression, index))
            )
        return Project(plan, self._dedupe_items(out_items))

    @staticmethod
    def _output_name(
        item: A.AstSelectItem, expression: Expression, index: int
    ) -> str:
        if item.alias:
            return item.alias
        if isinstance(expression, ColumnRef):
            return expression.bare_name
        return f"col{index + 1}"

    @staticmethod
    def _dedupe_items(
        items: list[tuple[Expression, str]]
    ) -> tuple[tuple[Expression, str], ...]:
        names = Binder._dedupe([name for _, name in items])
        return tuple(
            (expression, name)
            for (expression, _), name in zip(items, names)
        )

    # ------------------------------------------------------------------
    # Scalar expressions (no subqueries)
    # ------------------------------------------------------------------

    def _bind_scalar(
        self,
        node: A.AstExpression,
        scope: Scope,
        relations: dict[str, Schema],
    ) -> Expression:
        if isinstance(node, A.AstColumn):
            return scope.resolve(node.name)
        if isinstance(node, A.AstLiteral):
            return Literal(node.value)
        if isinstance(node, A.AstParameter):
            # Seed-valued so the optimizer costs the template exactly as
            # it would the original literal query (see BindParameter).
            return BindParameter(node.seed, node.index)
        if isinstance(node, A.AstUnary):
            operand = self._bind_scalar(node.operand, scope, relations)
            return Not(operand) if node.op == "not" else Negate(operand)
        if isinstance(node, A.AstBinary):
            left = self._bind_scalar(node.left, scope, relations)
            right = self._bind_scalar(node.right, scope, relations)
            if node.op == "and":
                return And(left, right)
            if node.op == "or":
                return Or(left, right)
            if node.op in _COMPARISON_MAP:
                return Comparison(_COMPARISON_MAP[node.op], left, right)
            if node.op in _ARITHMETIC_MAP:
                return Arithmetic(_ARITHMETIC_MAP[node.op], left, right)
            raise BindError(f"unsupported operator {node.op!r}")
        if isinstance(node, A.AstIsNull):
            return IsNull(
                self._bind_scalar(node.operand, scope, relations), node.negated
            )
        if isinstance(node, A.AstBetween):
            operand = self._bind_scalar(node.operand, scope, relations)
            low = self._bind_scalar(node.low, scope, relations)
            high = self._bind_scalar(node.high, scope, relations)
            between = And(
                Comparison(ComparisonOp.GE, operand, low),
                Comparison(ComparisonOp.LE, operand, high),
            )
            return Not(between) if node.negated else between
        if isinstance(node, A.AstInList):
            return InList(
                self._bind_scalar(node.operand, scope, relations),
                tuple(self._bind_scalar(i, scope, relations) for i in node.items),
                node.negated,
            )
        if isinstance(node, A.AstCase):
            whens = tuple(
                (
                    self._bind_scalar(c, scope, relations),
                    self._bind_scalar(v, scope, relations),
                )
                for c, v in node.whens
            )
            default = (
                Literal(None)
                if node.default is None
                else self._bind_scalar(node.default, scope, relations)
            )
            return CaseWhen(whens, default)
        if isinstance(node, A.AstFunction):
            if node.name in AGGREGATE_NAMES:
                raise BindError(
                    f"aggregate {node.name}() is not allowed here (only in "
                    "select lists and HAVING of grouped queries)"
                )
            args = tuple(
                self._bind_scalar(a, scope, relations) for a in node.args
            )
            return FunctionCall(node.name, args)
        if isinstance(node, (A.AstScalarSubquery, A.AstExists, A.AstInSubquery)):
            raise BindError(
                "subquery is not allowed in this position (supported in "
                "WHERE conjuncts and plain select items)"
            )
        if isinstance(node, A.AstStar):
            raise BindError("* is only allowed as a whole select item")
        raise BindError(f"unsupported expression {type(node).__name__}")


def bind_sql(text: str, catalog: Catalog) -> LogicalOperator:
    """Parse and bind SQL text into a logical plan."""
    return Binder(catalog).bind(parse(text))
