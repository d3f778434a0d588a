"""AST -> plain SQLite SQL: the differential-testing oracle lowering.

:mod:`repro.fuzz` checks the engine against ``sqlite3`` (an independent,
mature implementation) by translating each dialect query into SQL that
SQLite can execute and comparing result multisets. Everything except
GApply maps almost one-to-one; the two genuinely interesting parts are:

**GApply expansion.** SQLite (3.40, no LATERAL) cannot run a per-group
query directly, so ``select gapply(PGQ) ... group by k1..kn : g`` becomes

.. code-block:: sql

    WITH __outer AS (SELECT * FROM <outer from> [WHERE <outer where>]),
         __keys  AS (SELECT DISTINCT k1..kn FROM __outer)
    <branch 1> UNION ALL <branch 2> ...

with one SQL block per union branch of the PGQ. A branch whose select
list is a scalar aggregate (aggregates, no GROUP BY) yields exactly one
row per group, so each aggregate item becomes its own correlated scalar
subquery over ``__outer``::

    SELECT __keys.k1.., (SELECT <item> FROM __outer g1
                         WHERE g1.k1 IS __keys.k1 .. [AND <branch where>])
    FROM __keys

Any other branch joins ``__keys`` back to ``__outer``::

    SELECT [DISTINCT] __keys.k1.., <items>
    FROM __keys, __outer g1
    WHERE (g1.k1 IS __keys.k1 AND ..) [AND <branch where>]
    [GROUP BY __keys.k1.., <branch keys>] [HAVING ..]

``IS`` is SQLite's null-safe equality, which matches the engine's
treatment of NULL grouping keys (NULLs form one group). Subqueries
*inside* a branch that scan the group variable get a fresh ``__outer``
alias (g2, g3, ..) plus the same correlation conjuncts, so the paper's
Q2/Q3/Q4 per-group averages translate faithfully.

**Dialect gaps.** SQLite has no ``AS t(a, b)`` derived-table column
aliases, so those names are pushed down onto the subquery's select items;
``concat(..)`` becomes ``||``; ``true``/``false`` become ``1``/``0``.

Known semantic gaps (the fuzz generator steers around them; see
DESIGN.md): division by zero (engine raises, SQLite returns NULL),
cross-type comparisons (engine raises, SQLite's type ordering allows
them), scalar subqueries returning more than one row, and float
aggregation order (sidestepped by generating exactly-representable
values).
"""

from __future__ import annotations

from repro.algebra.tree import walk
from repro.errors import ReproError
from repro.sql import ast as A

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})

# Engine scalar functions with an identical SQLite builtin.
_DIRECT_FUNCTIONS = frozenset({"abs", "length", "upper", "lower", "coalesce", "round"})

OUTER_CTE = "__outer"
KEYS_CTE = "__keys"


class OracleUnsupportedError(ReproError):
    """The oracle lowering does not cover this construct.

    Raised instead of producing SQL with different semantics; the fuzzer
    treats it as "skip", never as "pass".
    """


def contains_aggregate(node: A.AstExpression) -> bool:
    """True when the expression calls an aggregate outside any subquery
    (subqueries form their own aggregation scope)."""
    return any(
        isinstance(inner, A.AstFunction) and inner.name.lower() in AGGREGATE_NAMES
        for inner in walk(node, A.EXPRESSIONS)
    )


def _references_columns(node: A.AstExpression) -> bool:
    """True when the expression reads any column (outside subqueries)."""
    return any(
        isinstance(inner, (A.AstColumn, A.AstStar))
        or (isinstance(inner, A.AstFunction) and inner.star)
        for inner in walk(node, A.EXPRESSIONS)
    )


def _bare(name: str) -> str:
    return name.split(".")[-1]


def to_sqlite(query: A.AstQuery) -> str:
    """Lower a dialect query to SQLite SQL (top-level ORDER BY dropped).

    The oracle compares *multisets*, so result order is irrelevant; a
    top-level LIMIT would make the multiset nondeterministic and is
    rejected.
    """
    if query.limit is not None:
        raise OracleUnsupportedError("LIMIT yields a nondeterministic multiset")
    gapply_selects = [s for s in query.selects if s.gapply is not None]
    if gapply_selects:
        if len(query.selects) != 1:
            raise OracleUnsupportedError("gapply must be the only union branch")
        return _GApplyLowering(query.selects[0]).sql()
    writer = _Writer()
    connector = " union all " if query.union_all else " union "
    return connector.join(writer.select(select) for select in query.selects)


class _Writer:
    """Plain (non-GApply) dialect -> SQLite printer.

    ``group_var``/``correlation`` are set by :class:`_GApplyLowering` so
    that subqueries scanning the group variable are rewritten to scan
    ``__outer`` under a fresh alias with the group-key correlation
    conjuncts appended.
    """

    def __init__(
        self,
        group_var: str | None = None,
        keys: tuple[str, ...] = (),
        alias_counter: list[int] | None = None,
    ):
        self.group_var = group_var
        self.keys = keys
        # Shared, mutable: every __outer occurrence in one lowering gets a
        # distinct alias regardless of nesting depth.
        self.alias_counter = alias_counter if alias_counter is not None else [0]
        # Innermost __outer alias while printing a select that scans the
        # group variable: grouping-key columns exist in both __keys and
        # that alias, so bare references to them must be qualified.
        self.scan_alias: str | None = None

    # -- group-variable plumbing --------------------------------------

    def fresh_alias(self) -> str:
        self.alias_counter[0] += 1
        return f"g{self.alias_counter[0]}"

    def correlation(self, alias: str) -> list[str]:
        return [f"{alias}.{k} IS {KEYS_CTE}.{k}" for k in self.keys]

    def qualify(self, name: str) -> str:
        """Disambiguate a bare grouping-key reference against __keys.

        Inside a select scanning the group variable, key columns exist in
        both ``__keys`` and the ``__outer`` alias; the group's own rows
        (the alias) are what the engine's GroupScan reads.
        """
        if self.scan_alias is not None and "." not in name and name in self.keys:
            return f"{self.scan_alias}.{name}"
        return name

    # -- queries ------------------------------------------------------

    def query(self, query: A.AstQuery) -> str:
        if query.limit is not None or query.order_by:
            raise OracleUnsupportedError("ORDER BY / LIMIT in a subquery")
        if any(s.gapply is not None for s in query.selects):
            raise OracleUnsupportedError("nested gapply")
        connector = " union all " if query.union_all else " union "
        return connector.join(self.select(select) for select in query.selects)

    def select(self, select: A.AstSelect) -> str:
        from_parts = []
        extra_where = []
        outer_scan_alias = self.scan_alias
        for item in select.from_items:
            rendered, conjuncts = self.from_item(item)
            from_parts.append(rendered)
            extra_where.extend(conjuncts)
        try:
            parts = ["select"]
            if select.distinct:
                parts.append("distinct")
            parts.append(", ".join(self.select_item(item) for item in select.items))
            parts.append("from " + ", ".join(from_parts))
            where = extra_where
            if select.where is not None:
                where = where + [self.expr(select.where)]
            if where:
                parts.append("where " + " and ".join(f"({w})" for w in where))
            if select.group_by:
                keys = [self.qualify(k) for k in select.group_by]
                parts.append("group by " + ", ".join(keys))
            if select.having is not None:
                parts.append("having " + self.expr(select.having))
            return " ".join(parts)
        finally:
            self.scan_alias = outer_scan_alias

    def select_item(self, item: A.AstSelectItem) -> str:
        if isinstance(item.expression, A.AstStar):
            qualifier = item.expression.qualifier
            return f"{qualifier}.*" if qualifier else "*"
        rendered = self.expr(item.expression)
        if item.alias:
            return f"{rendered} as {item.alias}"
        return rendered

    def from_item(self, item: A.AstNode) -> tuple[str, list[str]]:
        """Render one FROM item; also returns WHERE conjuncts it requires
        (group-variable correlation)."""
        if isinstance(item, A.AstTableRef):
            if self.group_var is not None and item.name == self.group_var:
                alias = self.fresh_alias()
                self.scan_alias = alias
                return f"{OUTER_CTE} as {alias}", self.correlation(alias)
            if item.alias and item.alias != item.name:
                return f"{item.name} as {item.alias}", []
            return item.name, []
        if isinstance(item, A.AstDerivedTable):
            inner = item.query
            if item.column_names:
                inner = _rename_query_columns(inner, item.column_names)
            return f"({self.query(inner)}) as {item.alias}", []
        if isinstance(item, A.AstJoin):
            left, left_extra = self.from_item(item.left)
            right, right_extra = self.from_item(item.right)
            extra = left_extra + right_extra
            if item.condition is None:
                return f"{left} cross join {right}", extra
            return f"{left} join {right} on {self.expr(item.condition)}", extra
        raise OracleUnsupportedError(f"FROM item {type(item).__name__}")

    # -- expressions --------------------------------------------------

    def literal(self, value) -> str:
        if value is None:
            return "null"
        if isinstance(value, bool):
            return "1" if value else "0"
        if isinstance(value, str):
            return "'" + value.replace("'", "''") + "'"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    def expr(self, node: A.AstExpression) -> str:
        if isinstance(node, A.AstColumn):
            return self.qualify(node.name)
        if isinstance(node, A.AstLiteral):
            return self.literal(node.value)
        if isinstance(node, A.AstUnary):
            if node.op == "not":
                return f"(not {self.expr(node.operand)})"
            return f"(- {self.expr(node.operand)})"
        if isinstance(node, A.AstBinary):
            return f"({self.expr(node.left)} {node.op} {self.expr(node.right)})"
        if isinstance(node, A.AstIsNull):
            word = "is not null" if node.negated else "is null"
            return f"({self.expr(node.operand)} {word})"
        if isinstance(node, A.AstBetween):
            word = "not between" if node.negated else "between"
            return (
                f"({self.expr(node.operand)} {word} "
                f"{self.expr(node.low)} and {self.expr(node.high)})"
            )
        if isinstance(node, A.AstInList):
            word = "not in" if node.negated else "in"
            items = ", ".join(self.expr(i) for i in node.items)
            return f"({self.expr(node.operand)} {word} ({items}))"
        if isinstance(node, A.AstInSubquery):
            word = "not in" if node.negated else "in"
            return f"({self.expr(node.operand)} {word} ({self.query(node.subquery)}))"
        if isinstance(node, A.AstExists):
            prefix = "not exists" if node.negated else "exists"
            return f"({prefix} ({self.query(node.subquery)}))"
        if isinstance(node, A.AstScalarSubquery):
            return f"({self.query(node.subquery)})"
        if isinstance(node, A.AstFunction):
            return self.function(node)
        if isinstance(node, A.AstCase):
            parts = ["case"]
            for condition, value in node.whens:
                parts.append(f"when {self.expr(condition)} then {self.expr(value)}")
            if node.default is not None:
                parts.append(f"else {self.expr(node.default)}")
            parts.append("end")
            return " ".join(parts)
        raise OracleUnsupportedError(f"expression {type(node).__name__}")

    def function(self, node: A.AstFunction) -> str:
        name = node.name.lower()
        if node.star:
            return "count(*)"
        args = [self.expr(arg) for arg in node.args]
        if name in AGGREGATE_NAMES or name in _DIRECT_FUNCTIONS:
            prefix = "distinct " if node.distinct else ""
            return f"{name}({prefix}{', '.join(args)})"
        if name == "concat":
            # Engine concat coerces via str(); SQLite || coerces numerics
            # the same way for the int/float/text values the fuzzer emits.
            return "(" + " || ".join(args) + ")"
        raise OracleUnsupportedError(f"scalar function {node.name!r}")


def _rename_query_columns(query: A.AstQuery, names: tuple[str, ...]) -> A.AstQuery:
    """Push ``AS t(a, b)`` column aliases down onto select items.

    SQLite has no derived-table column-alias syntax, so the names become
    item aliases on *every* union branch (only the first matters to
    SQLite; renaming all is harmless and keeps the rewrite uniform).
    """
    selects = []
    for select in query.selects:
        if any(isinstance(item.expression, A.AstStar) for item in select.items):
            raise OracleUnsupportedError("column aliases over SELECT *")
        if len(select.items) != len(names):
            raise OracleUnsupportedError(
                f"{len(names)} column aliases for {len(select.items)} items"
            )
        items = tuple(
            A.AstSelectItem(expression=item.expression, alias=name)
            for item, name in zip(select.items, names)
        )
        selects.append(_replace(select, items=items))
    return _replace(query, selects=tuple(selects))


def _replace(node, **changes):
    from dataclasses import replace

    return replace(node, **changes)


class _GApplyLowering:
    """Expand one top-level gapply select into the CTE encoding."""

    def __init__(self, select: A.AstSelect):
        if select.group_variable is None or not select.group_by:
            raise OracleUnsupportedError("gapply without `group by .. : var`")
        if select.distinct:
            raise OracleUnsupportedError("DISTINCT over gapply output")
        if select.having is not None:
            raise OracleUnsupportedError("HAVING on the gapply outer block")
        self.select = select
        self.keys = tuple(_bare(k) for k in select.group_by)
        self.group_var = select.group_variable
        self.alias_counter = [0]

    def writer(self) -> _Writer:
        return _Writer(self.group_var, self.keys, self.alias_counter)

    def sql(self) -> str:
        outer = self._outer_sql()
        keys = f"select distinct {', '.join(self.keys)} from {OUTER_CTE}"
        pgq = self.select.gapply.query
        if pgq.limit is not None or pgq.order_by:
            raise OracleUnsupportedError("ORDER BY / LIMIT in a per-group query")
        connector = " union all " if pgq.union_all else " union "
        branches = connector.join(self._branch(s) for s in pgq.selects)
        return (
            f"with {OUTER_CTE} as ({outer}), {KEYS_CTE} as ({keys}) {branches}"
        )

    def _outer_sql(self) -> str:
        # The outer block feeding the partitioning: plain SQL, no group
        # variable in scope yet.
        plain = _Writer()
        from_parts = []
        for item in self.select.from_items:
            rendered, extra = plain.from_item(item)
            assert not extra
            from_parts.append(rendered)
        sql = "select * from " + ", ".join(from_parts)
        if self.select.where is not None:
            sql += " where " + plain.expr(self.select.where)
        return sql

    def _key_items(self) -> str:
        return ", ".join(f"{KEYS_CTE}.{k}" for k in self.keys)

    def _branch(self, branch: A.AstSelect) -> str:
        if branch.gapply is not None:
            raise OracleUnsupportedError("nested gapply")
        is_aggregate = not branch.group_by and any(
            contains_aggregate(item.expression) for item in branch.items
        )
        if is_aggregate:
            return self._aggregate_branch(branch)
        return self._row_branch(branch)

    def _aggregate_branch(self, branch: A.AstSelect) -> str:
        """Scalar-aggregate branch: one row per group, each aggregate item
        its own correlated scalar subquery over ``__outer``."""
        if branch.having is not None:
            raise OracleUnsupportedError("HAVING in a scalar-aggregate branch")
        items = []
        for item in branch.items:
            expression = item.expression
            if contains_aggregate(expression):
                items.append(self._scalar_aggregate(branch, expression))
            elif _references_columns(expression):
                # The engine's binder rejects these too; mirror that.
                raise OracleUnsupportedError(
                    "non-aggregated column in a scalar-aggregate select"
                )
            else:
                items.append(self.writer().expr(expression))
        key_items = self._key_items()
        all_items = ", ".join([key_items] + items) if items else key_items
        return f"select {all_items} from {KEYS_CTE}"

    def _scalar_aggregate(self, branch: A.AstSelect, expression) -> str:
        writer = self.writer()
        alias = writer.fresh_alias()
        writer.scan_alias = alias
        conjuncts = writer.correlation(alias)
        from_parts = [f"{OUTER_CTE} as {alias}"]
        for item in branch.from_items:
            if isinstance(item, A.AstTableRef) and item.name == self.group_var:
                continue  # the group variable became the correlated scan
            rendered, extra = writer.from_item(item)
            from_parts.append(rendered)
            conjuncts.extend(extra)
        if branch.where is not None:
            conjuncts.append(writer.expr(branch.where))
        where = " and ".join(f"({c})" for c in conjuncts)
        return (
            f"(select {writer.expr(expression)} "
            f"from {', '.join(from_parts)} where {where})"
        )

    def _row_branch(self, branch: A.AstSelect) -> str:
        writer = self.writer()
        from_parts = [KEYS_CTE]
        conjuncts: list[str] = []
        saw_group_var = False
        for item in branch.from_items:
            rendered, extra = writer.from_item(item)
            from_parts.append(rendered)
            conjuncts.extend(extra)
            if extra:
                saw_group_var = True
        if not saw_group_var:
            raise OracleUnsupportedError(
                "per-group branch does not scan the group variable"
            )
        if branch.where is not None:
            conjuncts.append(writer.expr(branch.where))
        parts = ["select"]
        if branch.distinct:
            parts.append("distinct")
        item_sql = [self._key_items()]
        item_sql += [writer.select_item(item) for item in branch.items]
        parts.append(", ".join(item_sql))
        parts.append("from " + ", ".join(from_parts))
        parts.append("where " + " and ".join(f"({c})" for c in conjuncts))
        if branch.group_by:
            keys = [f"{KEYS_CTE}.{k}" for k in self.keys]
            inner = [writer.qualify(k) for k in branch.group_by]
            parts.append("group by " + ", ".join(keys + inner))
        if branch.having is not None:
            parts.append("having " + writer.expr(branch.having))
        return " ".join(parts)
