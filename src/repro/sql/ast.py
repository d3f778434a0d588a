"""Abstract syntax tree for the SQL dialect.

The AST is produced by :mod:`repro.sql.parser` and consumed by
:mod:`repro.sql.binder`. Expression nodes are separate from the algebra's
:class:`~repro.algebra.expressions.Expression` because AST expressions may
contain *subqueries*, which the binder decorrelates into
:class:`~repro.algebra.operators.Apply` plan nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import BindError


class AstNode:
    """Marker base class for AST nodes."""


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


class AstExpression(AstNode):
    pass


@dataclass(frozen=True)
class AstColumn(AstExpression):
    """A possibly-qualified column reference, e.g. ``part.p_name``."""

    name: str


@dataclass(frozen=True)
class AstLiteral(AstExpression):
    value: Any


@dataclass(frozen=True)
class AstParameter(AstExpression):
    """A positional parameter marker, printed as ``$<index+1>``.

    Produced two ways: written explicitly in prepared-statement text
    (``where p_size < $1``), or synthesized by the plan-cache normalizer
    (:mod:`repro.sql.normalize`), which extracts literals into markers so
    queries differing only in literal values share one cache key. ``seed``
    carries the literal value the marker replaced — the optimizer plans
    against it — and is excluded from equality so two parameterizations of
    the same shape compare (and hash) identically.
    """

    index: int  # 0-based slot into the parameter vector
    seed: Any = field(default=None, compare=False)


@dataclass(frozen=True)
class AstStar(AstExpression):
    """``*`` in a select list (optionally ``alias.*``)."""

    qualifier: str | None = None


@dataclass(frozen=True)
class AstUnary(AstExpression):
    """Unary operators: ``-expr`` and ``NOT expr``."""

    op: str  # "-" | "not"
    operand: AstExpression


@dataclass(frozen=True)
class AstBinary(AstExpression):
    """Binary operators: arithmetic, comparison, AND, OR."""

    op: str  # "+", "-", "*", "/", "%", "=", "<>", "<", "<=", ">", ">=", "and", "or"
    left: AstExpression
    right: AstExpression


@dataclass(frozen=True)
class AstIsNull(AstExpression):
    operand: AstExpression
    negated: bool = False


@dataclass(frozen=True)
class AstBetween(AstExpression):
    operand: AstExpression
    low: AstExpression
    high: AstExpression
    negated: bool = False


@dataclass(frozen=True)
class AstInList(AstExpression):
    operand: AstExpression
    items: tuple[AstExpression, ...]
    negated: bool = False


@dataclass(frozen=True)
class AstInSubquery(AstExpression):
    operand: AstExpression
    subquery: "AstQuery"
    negated: bool = False


@dataclass(frozen=True)
class AstExists(AstExpression):
    subquery: "AstQuery"
    negated: bool = False


@dataclass(frozen=True)
class AstScalarSubquery(AstExpression):
    """A parenthesized query used as a scalar value."""

    subquery: "AstQuery"


@dataclass(frozen=True)
class AstFunction(AstExpression):
    """Function call: scalar functions and the five aggregates.

    ``star`` marks ``count(*)``; ``distinct`` marks ``count(distinct x)``.
    """

    name: str
    args: tuple[AstExpression, ...]
    star: bool = False
    distinct: bool = False


@dataclass(frozen=True)
class AstCase(AstExpression):
    whens: tuple[tuple[AstExpression, AstExpression], ...]
    default: AstExpression | None = None


# ----------------------------------------------------------------------
# Queries
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AstSelectItem(AstNode):
    expression: AstExpression
    alias: str | None = None


@dataclass(frozen=True)
class AstTableRef(AstNode):
    """Plain table reference with optional alias."""

    name: str
    alias: str | None = None


@dataclass(frozen=True)
class AstDerivedTable(AstNode):
    """Parenthesized subquery in FROM, with mandatory alias and optional
    column renames: ``(select ...) as tmp(a, b, c)``."""

    query: "AstQuery"
    alias: str
    column_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class AstJoin(AstNode):
    """Explicit ``A [INNER] JOIN B ON cond`` (cond None for CROSS JOIN)."""

    left: AstNode
    right: AstNode
    condition: AstExpression | None


@dataclass(frozen=True)
class AstGApplyItem(AstNode):
    """The paper's select-clause extension: ``gapply(<query>) [as (cols)]``.

    ``query`` is the per-group query; its FROM clause references the group
    variable declared after ':' in the GROUP BY clause.
    """

    query: "AstQuery"
    column_names: tuple[str, ...] = ()


@dataclass(frozen=True)
class AstSelect(AstNode):
    """One SELECT block."""

    items: tuple[AstSelectItem, ...]
    from_items: tuple[AstNode, ...]
    where: AstExpression | None = None
    group_by: tuple[str, ...] = ()
    group_variable: str | None = None  # the ": x" extension
    having: AstExpression | None = None
    distinct: bool = False
    gapply: AstGApplyItem | None = None


@dataclass(frozen=True)
class AstQuery(AstNode):
    """A full query: UNION ALL chain of selects plus optional ORDER BY."""

    selects: tuple[AstSelect, ...]
    union_all: bool = True  # False => UNION (distinct)
    order_by: tuple[tuple[str, bool], ...] = ()
    limit: int | None = None

    @property
    def single(self) -> AstSelect:
        if len(self.selects) != 1:
            raise BindError("query is a union, not a single select")
        return self.selects[0]


@dataclass(frozen=True)
class AstExplain(AstNode):
    """``EXPLAIN [ANALYZE] <query>``: render the plan for ``query`` instead
    of its result; with ANALYZE, execute it and annotate the plan with the
    per-operator metrics actually observed."""

    query: AstQuery
    analyze: bool = False


#: The kinds of a traversal (:mod:`repro.algebra.tree`) of a whole
#: statement, and of one scalar expression: fields typed ``AstQuery``
#: (subqueries, their own scope) are not entered by the second.
AST = (AstNode,)
EXPRESSIONS = (AstExpression,)
