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

Every function here is one :func:`repro.algebra.tree.rewrite` over
:data:`repro.sql.ast.AST` (every AST node): the traversal enters the
fields whose type hints name AST nodes, in field order, and rebuilds a
node only when one of them changed.
"""

from __future__ import annotations

from typing import Any

from repro.algebra.tree import rewrite
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
    with extraction would renumber the user's slots. One walk does both:
    it notes any marker while it extracts.
    """
    values: list[Any] = []
    markers: list[A.AstParameter] = []

    def visit(node: A.AstNode) -> A.AstNode:
        if isinstance(node, A.AstLiteral):
            index = len(values)
            values.append(node.value)
            return A.AstParameter(index, seed=node.value)
        if isinstance(node, A.AstParameter):
            markers.append(node)
        return node

    parameterized = rewrite(statement, A.AST, visit)
    if markers:
        return statement, ()
    return parameterized, tuple(values)


def bind_ast_parameters(
    statement: "A.AstQuery | A.AstExplain", values: tuple[Any, ...]
) -> "A.AstQuery | A.AstExplain":
    """Substitute ``values`` back into the statement's ``$N`` markers."""

    def visit(node: A.AstNode) -> A.AstNode:
        if isinstance(node, A.AstParameter):
            if node.index >= len(values):
                raise BindError(
                    f"parameter ${node.index + 1} has no bound value "
                    f"({len(values)} given)"
                )
            return A.AstLiteral(values[node.index])
        return node

    return rewrite(statement, A.AST, visit)


def seed_parameters(
    statement: "A.AstQuery | A.AstExplain", values: tuple[Any, ...]
) -> "A.AstQuery | A.AstExplain":
    """Re-seed every marker's planning value without removing the marker.

    Used for explicit ``$N`` markers: a cache miss plans the template as
    if the bound parameter vector were the query's literals, so it gets
    the plan the literal query would.
    """

    def visit(node: A.AstNode) -> A.AstNode:
        if isinstance(node, A.AstParameter) and node.index < len(values):
            return A.AstParameter(node.index, seed=values[node.index])
        return node

    return rewrite(statement, A.AST, visit)


def count_parameters(statement: "A.AstQuery | A.AstExplain") -> int:
    """Number of parameter slots (max index + 1); validates density.

    Explicit markers must form a dense ``$1..$N`` range — a gap means a
    slot that can never be bound, which is always a typo.
    """
    seen: set[int] = set()

    def visit(node: A.AstNode) -> A.AstNode:
        if isinstance(node, A.AstParameter):
            seen.add(node.index)
        return node

    rewrite(statement, A.AST, visit)
    if not seen:
        return 0
    count = max(seen) + 1
    missing = sorted(set(range(count)) - seen)
    if missing:
        slots = ", ".join(f"${index + 1}" for index in missing)
        raise BindError(f"parameter markers are not dense: missing {slots}")
    return count
