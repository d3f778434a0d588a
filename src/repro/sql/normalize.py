"""Query normalization for the plan cache: literal extraction.

The plan cache (:mod:`repro.optimizer.plancache`) keys entries by query
*shape*, not text: two queries that differ only in literal values should
share one cached plan. :func:`parameterize` walks a parsed statement and
replaces every literal in expression position with an
:class:`~repro.sql.ast.AstParameter` marker (left-to-right, so slot order
is deterministic), returning the parameterized AST plus the extracted
value vector. The printer renders markers as ``$1``/``$2``/... — the
canonical parameterized text is the cache key.

Structural constants stay in the key on purpose: ``LIMIT`` counts,
``ORDER BY`` / ``GROUP BY`` column lists, and the implicit NULL default
of a CASE without ELSE are plan *shape*, not parameters.

:func:`bind_ast_parameters` is the inverse — substitute values back into
markers — used by property tests and by prepared statements that fall
back to uncached execution.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.errors import BindError
from repro.sql import ast as A

#: Type tags for the cache key: a cached plan is only reused when the new
#: parameter vector has the same shape (int vs float changes arithmetic
#: semantics; str vs int changes inferred schema types).
_TYPE_TAGS: tuple[tuple[type, str], ...] = (
    (bool, "bool"),  # before int: bool is an int subclass
    (int, "int"),
    (float, "float"),
    (str, "str"),
)


def type_signature(values: tuple[Any, ...]) -> tuple[str, ...]:
    """One tag per parameter value, for inclusion in the cache key."""
    tags = []
    for value in values:
        if value is None:
            tags.append("null")
            continue
        for pytype, tag in _TYPE_TAGS:
            if isinstance(value, pytype):
                tags.append(tag)
                break
        else:
            tags.append(type(value).__name__)
    return tuple(tags)


def parameterize(
    statement: "A.AstQuery | A.AstExplain",
) -> tuple["A.AstQuery | A.AstExplain", tuple[Any, ...]]:
    """Extract literals into ``$N`` markers.

    Returns the parameterized statement and the extracted values in slot
    order. Statements already containing explicit markers are returned
    unchanged with an empty value vector — mixing handwritten markers
    with extraction would renumber the user's slots.
    """
    if count_parameters(statement) > 0:
        return statement, ()
    values: list[Any] = []

    def visit(node: A.AstExpression) -> A.AstExpression:
        if isinstance(node, A.AstLiteral):
            index = len(values)
            values.append(node.value)
            return A.AstParameter(index, seed=node.value)
        return node

    return _rewrite_statement(statement, visit), tuple(values)


def bind_ast_parameters(
    statement: "A.AstQuery | A.AstExplain", values: tuple[Any, ...]
) -> "A.AstQuery | A.AstExplain":
    """Substitute ``values`` back into the statement's ``$N`` markers."""

    def visit(node: A.AstExpression) -> A.AstExpression:
        if isinstance(node, A.AstParameter):
            if node.index >= len(values):
                raise BindError(
                    f"parameter ${node.index + 1} has no bound value "
                    f"({len(values)} given)"
                )
            return A.AstLiteral(values[node.index])
        return node

    return _rewrite_statement(statement, visit)


def seed_parameters(
    statement: "A.AstQuery | A.AstExplain", values: tuple[Any, ...]
) -> "A.AstQuery | A.AstExplain":
    """Re-seed every marker's planning value without removing the marker.

    Used for explicit ``$N`` markers: a cache miss plans the template as
    if the bound parameter vector were the query's literals, so it gets
    the plan the literal query would.
    """

    def visit(node: A.AstExpression) -> A.AstExpression:
        if isinstance(node, A.AstParameter) and node.index < len(values):
            return A.AstParameter(node.index, seed=values[node.index])
        return node

    return _rewrite_statement(statement, visit)


def count_parameters(statement: "A.AstQuery | A.AstExplain") -> int:
    """Number of parameter slots (max index + 1); validates density.

    Explicit markers must form a dense ``$1..$N`` range — a gap means a
    slot that can never be bound, which is always a typo.
    """
    seen: set[int] = set()

    def visit(node: A.AstExpression) -> A.AstExpression:
        if isinstance(node, A.AstParameter):
            seen.add(node.index)
        return node

    _rewrite_statement(statement, visit)
    if not seen:
        return 0
    count = max(seen) + 1
    missing = sorted(set(range(count)) - seen)
    if missing:
        slots = ", ".join(f"${index + 1}" for index in missing)
        raise BindError(f"parameter markers are not dense: missing {slots}")
    return count


# ----------------------------------------------------------------------
# Generic AST rewriting
# ----------------------------------------------------------------------

_Visitor = Callable[[A.AstExpression], A.AstExpression]


def _rewrite_statement(
    statement: "A.AstQuery | A.AstExplain", visit: _Visitor
) -> "A.AstQuery | A.AstExplain":
    if isinstance(statement, A.AstExplain):
        query = _rewrite_query(statement.query, visit)
        if query is statement.query:
            return statement
        return A.AstExplain(query, statement.analyze)
    return _rewrite_query(statement, visit)


def _rewrite_query(query: A.AstQuery, visit: _Visitor) -> A.AstQuery:
    selects = _tuple(query.selects, lambda s: _rewrite_select(s, visit))
    if selects is query.selects:
        return query
    return A.AstQuery(selects, query.union_all, query.order_by, query.limit)


def _rewrite_select(select: A.AstSelect, visit: _Visitor) -> A.AstSelect:
    items = _tuple(select.items, lambda i: _rewrite_select_item(i, visit))
    from_items = _tuple(
        select.from_items, lambda f: _rewrite_from_item(f, visit)
    )
    where = _optional(select.where, visit)
    having = _optional(select.having, visit)
    gapply = select.gapply
    if gapply is not None:
        inner = _rewrite_query(gapply.query, visit)
        if inner is not gapply.query:
            gapply = A.AstGApplyItem(inner, gapply.column_names)
    if (
        items is select.items
        and from_items is select.from_items
        and where is select.where
        and having is select.having
        and gapply is select.gapply
    ):
        return select
    return A.AstSelect(
        items=items,
        from_items=from_items,
        where=where,
        group_by=select.group_by,
        group_variable=select.group_variable,
        having=having,
        distinct=select.distinct,
        gapply=gapply,
    )


def _rewrite_select_item(
    item: A.AstSelectItem, visit: _Visitor
) -> A.AstSelectItem:
    expression = _rewrite_expression(item.expression, visit)
    if expression is item.expression:
        return item
    return A.AstSelectItem(expression, item.alias)


def _rewrite_from_item(item: A.AstNode, visit: _Visitor) -> A.AstNode:
    if isinstance(item, A.AstTableRef):
        return item
    if isinstance(item, A.AstDerivedTable):
        query = _rewrite_query(item.query, visit)
        if query is item.query:
            return item
        return A.AstDerivedTable(query, item.alias, item.column_names)
    if isinstance(item, A.AstJoin):
        left = _rewrite_from_item(item.left, visit)
        right = _rewrite_from_item(item.right, visit)
        condition = _optional(item.condition, visit)
        if (
            left is item.left
            and right is item.right
            and condition is item.condition
        ):
            return item
        return A.AstJoin(left, right, condition)
    raise BindError(f"cannot rewrite FROM item {type(item).__name__}")


def _rewrite_expression(
    node: A.AstExpression, visit: _Visitor
) -> A.AstExpression:
    if isinstance(node, (A.AstLiteral, A.AstParameter)):
        return visit(node)
    if isinstance(node, (A.AstColumn, A.AstStar)):
        return node
    if isinstance(node, A.AstUnary):
        operand = _rewrite_expression(node.operand, visit)
        return node if operand is node.operand else A.AstUnary(node.op, operand)
    if isinstance(node, A.AstBinary):
        left = _rewrite_expression(node.left, visit)
        right = _rewrite_expression(node.right, visit)
        if left is node.left and right is node.right:
            return node
        return A.AstBinary(node.op, left, right)
    if isinstance(node, A.AstIsNull):
        operand = _rewrite_expression(node.operand, visit)
        if operand is node.operand:
            return node
        return A.AstIsNull(operand, node.negated)
    if isinstance(node, A.AstBetween):
        operand = _rewrite_expression(node.operand, visit)
        low = _rewrite_expression(node.low, visit)
        high = _rewrite_expression(node.high, visit)
        if operand is node.operand and low is node.low and high is node.high:
            return node
        return A.AstBetween(operand, low, high, node.negated)
    if isinstance(node, A.AstInList):
        operand = _rewrite_expression(node.operand, visit)
        items = _tuple(node.items, lambda i: _rewrite_expression(i, visit))
        if operand is node.operand and items is node.items:
            return node
        return A.AstInList(operand, items, node.negated)
    if isinstance(node, A.AstInSubquery):
        operand = _rewrite_expression(node.operand, visit)
        subquery = _rewrite_query(node.subquery, visit)
        if operand is node.operand and subquery is node.subquery:
            return node
        return A.AstInSubquery(operand, subquery, node.negated)
    if isinstance(node, A.AstExists):
        subquery = _rewrite_query(node.subquery, visit)
        if subquery is node.subquery:
            return node
        return A.AstExists(subquery, node.negated)
    if isinstance(node, A.AstScalarSubquery):
        subquery = _rewrite_query(node.subquery, visit)
        if subquery is node.subquery:
            return node
        return A.AstScalarSubquery(subquery)
    if isinstance(node, A.AstFunction):
        args = _tuple(node.args, lambda a: _rewrite_expression(a, visit))
        if args is node.args:
            return node
        return A.AstFunction(node.name, args, node.star, node.distinct)
    if isinstance(node, A.AstCase):
        whens = _tuple(
            node.whens,
            lambda pair: _rewrite_when(pair, visit),
        )
        default = _optional(node.default, visit)
        if whens is node.whens and default is node.default:
            return node
        return A.AstCase(whens, default)
    raise BindError(f"cannot rewrite expression {type(node).__name__}")


def _rewrite_when(
    pair: tuple[A.AstExpression, A.AstExpression], visit: _Visitor
) -> tuple[A.AstExpression, A.AstExpression]:
    condition = _rewrite_expression(pair[0], visit)
    value = _rewrite_expression(pair[1], visit)
    if condition is pair[0] and value is pair[1]:
        return pair
    return (condition, value)


def _optional(
    node: A.AstExpression | None, visit: _Visitor
) -> A.AstExpression | None:
    if node is None:
        return None
    return _rewrite_expression(node, visit)


def _tuple(items: tuple, fn: Callable[[Any], Any]) -> tuple:
    rewritten = tuple(fn(item) for item in items)
    if all(a is b for a, b in zip(rewritten, items)):
        return items
    return rewritten
