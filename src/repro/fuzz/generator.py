"""Seeded random schemas, data, and dialect queries for differential fuzzing.

Everything is driven by one ``random.Random(seed)`` instance, so a case is
fully reproducible from its seed. The generator is *semantics-aware*: it
only emits queries whose meaning is identical in this engine and in the
SQLite oracle, steering around the documented gaps (see
:mod:`repro.sql.sqlite`):

* type-directed generation — the engine raises on cross-type comparisons
  where SQLite's universal type ordering would happily answer;
* floats are multiples of 0.25 with bounded magnitude, so sums are exact
  in binary and aggregation order cannot change results. A *nonfinite*
  case (``generate_case(seed, nonfinite=True)`` draws about one in five)
  also draws NaN (a fresh object each time), ±inf and -0.0 into its FLOAT
  columns, and may group on a FLOAT column; SQLite stores NaN as NULL, so
  such a case is held to the plan space and the row iterators only;
* no division or modulo (engine raises on zero, SQLite returns NULL);
* no LIMIT (nondeterministic multiset) and no ORDER BY (irrelevant under
  multiset comparison);
* scalar subqueries are always single-aggregate selects (exactly one row);
* union branches agree on per-position types (plus free NULLs), so UNION
  distinct never compares across types.

Data targets the paper's stress axes: skewed group sizes (a few big
groups, a long tail), NULL-heavy grouping and value columns, groups that
a per-group WHERE empties out, and FK chains between tables for joins
under and over GApply. A *join-region* case (about one in five, drawn by
an rng of its own, so every other case is the one drawn without it)
builds 3-4 tables linked as an FK chain or star and joins all of them,
FROM items and join conditions shuffled, so the optimizer has a join
order to choose. An *expression-aggregate* case (about one in five, by
another rng of its own) may aggregate ``int_col + k`` or
``float_col * 2`` and test ``count(*)`` against an IN list in HAVING.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.algebra.tree import walk
from repro.api import Database
from repro.sql import ast as A
from repro.sql.parser import AGGREGATE_NAMES
from repro.sql.printer import print_query
from repro.storage.types import DataType

STRING_VOCAB = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta")
GROUP_VARIABLE = "g"


# ----------------------------------------------------------------------
# Schema + data
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzColumn:
    name: str
    dtype: DataType
    role: str  # "pk" | "group" | "value" | "fk"


@dataclass
class FuzzTable:
    name: str
    columns: list[FuzzColumn]
    rows: list[tuple]
    primary_key: list[str]


@dataclass
class FuzzDatabase:
    """A generated schema + data set, buildable into both engines."""

    tables: list[FuzzTable]
    # (child_table, child_column, parent_table, parent_column)
    foreign_keys: list[tuple[str, str, str, str]] = field(default_factory=list)

    def build(self) -> Database:
        db = Database()
        for table in self.tables:
            db.create_table(
                table.name,
                [(c.name, c.dtype) for c in table.columns],
                table.rows,
                primary_key=table.primary_key or None,
            )
        for child, child_col, parent, parent_col in self.foreign_keys:
            db.add_foreign_key(child, [child_col], parent, [parent_col])
        return db

    def table(self, name: str) -> FuzzTable:
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(name)


def _grid_float(rng: random.Random) -> float:
    # Multiples of 0.25 are exactly representable; bounded magnitude keeps
    # products and sums exact too, making aggregation order-independent.
    return rng.randrange(-400, 1600) * 0.25


#: What a nonfinite case draws into FLOAT columns besides grid floats.
NONFINITE_FLOATS = (math.nan, math.inf, -math.inf, -0.0)


def _fresh_nan(value):
    """``value``, but a NaN is a fresh object: NaNs must group by value,
    not by identity."""
    return float("nan") if value != value else value


def _group_pool(rng: random.Random, dtype: DataType) -> list:
    size = rng.choice([1, 2, 2, 3, 3, 4])
    if dtype is DataType.INTEGER:
        return rng.sample(range(0, 10), size)
    if dtype is DataType.FLOAT:
        return rng.sample(NONFINITE_FLOATS + (0.0, 0.5, 1.0, 2.5), size)
    return rng.sample(STRING_VOCAB, size)


def is_nonfinite(db: FuzzDatabase) -> bool:
    """Whether any FLOAT value in ``db`` is NaN, ±inf or -0.0."""
    return any(
        isinstance(value, float)
        and (not math.isfinite(value) or (value == 0 and math.copysign(1.0, value) < 0))
        for table in db.tables
        for row in table.rows
        for value in row
    )


def _skewed_pick(rng: random.Random, pool: list):
    # Zipf-flavored: the first pool element dominates, giving one big
    # group and a tail of small ones (the paper's skew concern).
    if len(pool) == 1 or rng.random() < 0.5:
        return pool[0]
    return rng.choice(pool[1:])


#: Share of cases that join a 3-4 table FK chain or star.
JOIN_REGION_SHARE = 0.2
#: Share of cases that may aggregate an expression and test ``count(*)``
#: against an IN list.
EXPRESSION_AGGREGATE_SHARE = 0.2


def _region_parents(rng: random.Random) -> list[int]:
    """Each table's FK parent (index) in a 3-4 table chain or star."""
    n_tables = rng.choice([3, 4])
    if rng.random() < 0.5:
        return [index - 1 for index in range(n_tables)]
    return [0 if index else -1 for index in range(n_tables)]


def generate_database(
    rng: random.Random,
    nonfinite: random.Random | None = None,
    parents: list[int] | None = None,
) -> FuzzDatabase:
    """A random schema and data; ``nonfinite`` (an rng of its own, so the
    other draws stay those of a finite case) makes a nonfinite one, and
    ``parents`` fixes the tables and their FK parents (-1 for none)."""
    n_tables = len(parents) if parents else rng.choice([1, 2, 2, 3])
    tables: list[FuzzTable] = []
    fks: list[tuple[str, str, str, str]] = []
    for index in range(n_tables):
        prefix = f"t{index}"
        columns = [FuzzColumn(f"{prefix}id", DataType.INTEGER, "pk")]
        for g in range(rng.choice([1, 1, 2])):
            dtype = rng.choice([DataType.INTEGER, DataType.STRING])
            if nonfinite is not None and nonfinite.random() < 0.5:
                dtype = DataType.FLOAT
            columns.append(FuzzColumn(f"{prefix}g{g}", dtype, "group"))
        for v in range(rng.choice([1, 2, 2])):
            dtype = rng.choice([DataType.INTEGER, DataType.FLOAT])
            columns.append(FuzzColumn(f"{prefix}v{v}", dtype, "value"))
        if rng.random() < 0.6:
            columns.append(FuzzColumn(f"{prefix}s0", DataType.STRING, "value"))
        parent: FuzzTable | None = None
        if parents:
            parent = tables[parents[index]] if parents[index] >= 0 else None
        elif index > 0 and rng.random() < 0.7:
            parent = rng.choice(tables)
        if parent is not None:
            columns.append(FuzzColumn(f"{prefix}fk", DataType.INTEGER, "fk"))

        n_rows = rng.choice([0, 3, 6, 10, 16, 25, 40])
        null_rate = rng.choice([0.0, 0.1, 0.3, 0.5])
        pools = {
            c.name: _group_pool(rng, c.dtype) for c in columns if c.role == "group"
        }
        parent_keys = [row[0] for row in parent.rows] if parent else []
        rows = []
        for pk in range(1, n_rows + 1):
            row = []
            for column in columns:
                if column.role == "pk":
                    row.append(pk)
                elif column.role == "group":
                    if rng.random() < null_rate:
                        row.append(None)
                    else:
                        row.append(_fresh_nan(_skewed_pick(rng, pools[column.name])))
                elif column.role == "fk":
                    if parent_keys and rng.random() > null_rate:
                        row.append(rng.choice(parent_keys))
                    else:
                        row.append(None)
                elif rng.random() < null_rate:
                    row.append(None)
                elif column.dtype is DataType.INTEGER:
                    row.append(rng.randint(-50, 200))
                elif column.dtype is DataType.FLOAT:
                    if nonfinite is not None and nonfinite.random() < 0.3:
                        row.append(_fresh_nan(nonfinite.choice(NONFINITE_FLOATS)))
                    else:
                        row.append(_grid_float(rng))
                else:
                    row.append(rng.choice(STRING_VOCAB))
            rows.append(tuple(row))
        table = FuzzTable(prefix, columns, rows, [f"{prefix}id"])
        tables.append(table)
        if parent is not None:
            fks.append((prefix, f"{prefix}fk", parent.name, f"{parent.name}id"))
    return FuzzDatabase(tables, fks)


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------

_NUMERIC = (DataType.INTEGER, DataType.FLOAT)


def _lit(value) -> A.AstLiteral:
    return A.AstLiteral(value)


def _col(column: FuzzColumn) -> A.AstColumn:
    return A.AstColumn(column.name)


class _QueryGenerator:
    def __init__(
        self,
        rng: random.Random,
        db: FuzzDatabase,
        region: random.Random | None = None,
        expressions: random.Random | None = None,
        keyless: random.Random | None = None,
    ):
        self.rng = rng
        self.db = db
        #: A join-region case's own rng: every FROM clause joins all tables.
        self.region = region
        #: An expression-aggregate case's own rng (see :meth:`aggregate_item`
        #: and :meth:`having`).
        self.expressions = expressions
        #: A keyless-join case's own rng (see :meth:`join_condition`).
        self.keyless = keyless

    # -- literals ------------------------------------------------------

    def literal_for(self, dtype: DataType) -> A.AstLiteral:
        rng = self.rng
        if dtype is DataType.INTEGER:
            return _lit(rng.randint(-50, 200))
        if dtype is DataType.FLOAT:
            return _lit(_grid_float(rng))
        return _lit(rng.choice(STRING_VOCAB))

    # -- scalar expressions -------------------------------------------

    def scalar(self, columns: list[FuzzColumn], dtype: DataType, depth: int = 1):
        """A scalar expression of the given type over the given columns."""
        rng = self.rng
        typed = [c for c in columns if c.dtype is dtype]
        numeric = [c for c in columns if c.dtype in _NUMERIC]
        strings = [c for c in columns if c.dtype is DataType.STRING]
        choices = ["literal"]
        if typed:
            choices += ["column"] * 4 + ["coalesce"]
        if depth > 0:
            if dtype in _NUMERIC and typed:
                choices += ["arith", "abs"]
            if dtype is DataType.INTEGER and strings:
                choices.append("length")
            if dtype is DataType.STRING and typed:
                choices += ["upper", "lower", "concat"]
            if typed and (numeric or strings):
                choices.append("case")
        kind = rng.choice(choices)
        if kind == "column":
            return _col(rng.choice(typed))
        if kind == "literal":
            return self.literal_for(dtype)
        if kind == "coalesce":
            return A.AstFunction(
                "coalesce", (_col(rng.choice(typed)), self.literal_for(dtype))
            )
        if kind == "arith":
            op = rng.choice(["+", "-", "*"])
            right = (
                _col(rng.choice(typed))
                if rng.random() < 0.5
                else self.literal_for(dtype)
            )
            if op == "*":  # keep magnitudes bounded and exact
                right = _lit(rng.randint(-3, 4))
            return A.AstBinary(op, _col(rng.choice(typed)), right)
        if kind == "abs":
            return A.AstFunction("abs", (_col(rng.choice(typed)),))
        if kind == "length":
            return A.AstFunction("length", (_col(rng.choice(strings)),))
        if kind in ("upper", "lower"):
            return A.AstFunction(kind, (_col(rng.choice(typed)),))
        if kind == "concat":
            return A.AstFunction(
                "concat", (_col(rng.choice(typed)), self.literal_for(dtype))
            )
        assert kind == "case"
        condition = self.atom(columns)
        return A.AstCase(
            whens=((condition, self.scalar(columns, dtype, 0)),),
            default=self.scalar(columns, dtype, 0),
        )

    # -- predicates ----------------------------------------------------

    def atom(self, columns: list[FuzzColumn]) -> A.AstExpression:
        """A simple (subquery-free) boolean atom."""
        rng = self.rng
        column = rng.choice(columns)
        kind = rng.choice(["cmp", "cmp", "cmp", "between", "inlist", "isnull"])
        if kind == "isnull":
            return A.AstIsNull(_col(column), negated=rng.random() < 0.4)
        if column.dtype in _NUMERIC:
            peers = [c for c in columns if c.dtype in _NUMERIC and c is not column]
        else:
            peers = [
                c for c in columns if c.dtype is column.dtype and c is not column
            ]
        if kind == "between" and column.dtype in _NUMERIC:
            low, high = sorted(
                [self.literal_for(column.dtype).value for _ in range(2)],
                key=lambda v: (v is None, v),
            )
            return A.AstBetween(
                _col(column), _lit(low), _lit(high), negated=rng.random() < 0.3
            )
        if kind == "inlist":
            items = tuple(
                self.literal_for(column.dtype)
                for _ in range(rng.randint(1, 3))
            )
            return A.AstInList(_col(column), items, negated=rng.random() < 0.3)
        op = rng.choice(["=", "<>", "<", "<=", ">", ">="])
        if peers and rng.random() < 0.35:
            return A.AstBinary(op, _col(column), _col(rng.choice(peers)))
        return A.AstBinary(op, _col(column), self.literal_for(column.dtype))

    def boolean(self, columns: list[FuzzColumn], depth: int = 1) -> A.AstExpression:
        """A subquery-free boolean expression (atoms under AND/OR/NOT)."""
        rng = self.rng
        choices = ["atom"] * 4 + (["and", "or", "not"] if depth > 0 else [])
        kind = rng.choice(choices)
        if kind == "atom":
            return self.atom(columns)
        if kind in ("and", "or"):
            return A.AstBinary(
                kind, self.boolean(columns, depth - 1), self.boolean(columns, depth - 1)
            )
        return A.AstUnary("not", self.boolean(columns, 0))

    def predicate(
        self,
        columns: list[FuzzColumn],
        subquery_tables: list[FuzzTable] = (),
        group_columns: list[FuzzColumn] | None = None,
        depth: int = 1,
    ) -> A.AstExpression:
        """A WHERE predicate: a boolean core AND-ed with subquery atoms.

        The engine's binder decorrelates subqueries only when they appear
        as top-level WHERE conjuncts, so subqueries (EXISTS / IN / scalar
        aggregate comparisons) are only ever AND-ed in, never nested under
        OR or NOT. ``subquery_tables`` are base tables usable inside them;
        ``group_columns`` being set means the group variable is in scope,
        enabling per-group subqueries over it.
        """
        rng = self.rng
        kinds = []
        if subquery_tables:
            kinds += ["exists", "insub"]
        if group_columns is not None:
            kinds += ["group_agg", "group_agg", "group_exists", "group_insub"]
        conjuncts: list[A.AstExpression] = []
        if not kinds or rng.random() < 0.75:
            conjuncts.append(self.boolean(columns, depth))
        if kinds:
            budget = 1 if rng.random() < 0.8 else 2
            for _ in range(budget):
                if conjuncts and rng.random() < 0.5:
                    continue
                kind = rng.choice(kinds)
                if kind == "exists":
                    conjuncts.append(
                        self._exists_subquery(rng.choice(subquery_tables), columns)
                    )
                elif kind == "insub":
                    conjuncts.append(
                        self._in_subquery(rng.choice(subquery_tables), columns)
                    )
                elif kind == "group_agg":
                    conjuncts.append(
                        self._group_aggregate_cmp(columns, group_columns)
                    )
                elif kind == "group_exists":
                    conjuncts.append(self._group_exists(group_columns))
                else:
                    conjuncts.append(
                        self._group_in_subquery(columns, group_columns)
                    )
        if not conjuncts:
            conjuncts.append(self.boolean(columns, depth))
        predicate = conjuncts[0]
        for extra in conjuncts[1:]:
            predicate = A.AstBinary("and", predicate, extra)
        return predicate

    def _exists_subquery(self, table: FuzzTable, outer_columns) -> A.AstExpression:
        """EXISTS over a base table, correlated by an equality when a
        type-compatible column pair exists."""
        rng = self.rng
        conjuncts = [self.atom(table.columns)]
        pairs = [
            (inner, outer)
            for inner in table.columns
            for outer in outer_columns
            if inner.dtype is outer.dtype and inner.name != outer.name
        ]
        if pairs and rng.random() < 0.6:
            inner, outer = rng.choice(pairs)
            conjuncts.append(A.AstBinary("=", _col(inner), _col(outer)))
        where = conjuncts[0]
        for extra in conjuncts[1:]:
            where = A.AstBinary("and", where, extra)
        select = A.AstSelect(
            items=(A.AstSelectItem(_lit(1)),),
            from_items=(A.AstTableRef(table.name),),
            where=where,
        )
        return A.AstExists(
            A.AstQuery((select,)), negated=rng.random() < 0.4
        )

    def _in_subquery(self, table: FuzzTable, outer_columns) -> A.AstExpression:
        rng = self.rng
        inner = rng.choice(table.columns)
        outers = [c for c in outer_columns if c.dtype is inner.dtype]
        if not outers:
            return self.atom(outer_columns)
        select = A.AstSelect(
            items=(A.AstSelectItem(_col(inner)),),
            from_items=(A.AstTableRef(table.name),),
            where=self.atom(table.columns) if rng.random() < 0.6 else None,
        )
        return A.AstInSubquery(
            _col(rng.choice(outers)),
            A.AstQuery((select,)),
            negated=rng.random() < 0.4,
        )

    def _group_scalar_aggregate(self, group_columns) -> A.AstScalarSubquery:
        """``(select agg(col) from g [where ..])`` — exactly one row."""
        rng = self.rng
        numeric = [c for c in group_columns if c.dtype in _NUMERIC]
        if numeric:
            fn = rng.choice(["avg", "sum", "min", "max", "count"])
            arg = _col(rng.choice(numeric))
            agg = A.AstFunction(fn, (arg,))
        else:
            agg = A.AstFunction("count", (), star=True)
        select = A.AstSelect(
            items=(A.AstSelectItem(agg),),
            from_items=(A.AstTableRef(GROUP_VARIABLE),),
            where=self.atom(group_columns) if rng.random() < 0.3 else None,
        )
        return A.AstScalarSubquery(A.AstQuery((select,)))

    def _group_aggregate_cmp(self, columns, group_columns) -> A.AstExpression:
        """``col >= (select avg(v) from g)`` — the paper's Q2/Q3 shape."""
        rng = self.rng
        numeric = [c for c in columns if c.dtype in _NUMERIC]
        if not numeric:
            return self.atom(columns)
        op = rng.choice(["<", "<=", ">", ">=", "=", "<>"])
        return A.AstBinary(
            op, _col(rng.choice(numeric)), self._group_scalar_aggregate(group_columns)
        )

    def _group_exists(self, group_columns) -> A.AstExpression:
        rng = self.rng
        select = A.AstSelect(
            items=(A.AstSelectItem(_lit(1)),),
            from_items=(A.AstTableRef(GROUP_VARIABLE),),
            where=self.atom(group_columns),
        )
        return A.AstExists(A.AstQuery((select,)), negated=rng.random() < 0.4)

    def _group_in_subquery(self, columns, group_columns) -> A.AstExpression:
        rng = self.rng
        inner = rng.choice(group_columns)
        outers = [c for c in columns if c.dtype is inner.dtype]
        if not outers:
            return self.atom(columns)
        select = A.AstSelect(
            items=(A.AstSelectItem(_col(inner)),),
            from_items=(A.AstTableRef(GROUP_VARIABLE),),
            where=self.atom(group_columns) if rng.random() < 0.5 else None,
        )
        return A.AstInSubquery(
            _col(rng.choice(outers)),
            A.AstQuery((select,)),
            negated=rng.random() < 0.4,
        )

    # -- aggregates ----------------------------------------------------

    def aggregate_item(self, columns: list[FuzzColumn], dtype: DataType):
        """An aggregate expression whose result has the given type. In an
        expression-aggregate case, half the aggregates over one numeric
        column take ``int_col + k`` or ``float_col * 2`` instead: exact in
        the generator's domains, and the literal becomes a plan-cache
        marker inside the aggregate call."""
        aggregate = self._aggregate_item(columns, dtype)
        widen = self.expressions
        if (
            widen is None
            or aggregate is None
            or len(aggregate.args) != 1
            or widen.random() < 0.5
        ):
            return aggregate
        (argument,) = aggregate.args
        dtype = next(c.dtype for c in columns if c.name == argument.name)
        if dtype is DataType.INTEGER:
            argument = A.AstBinary("+", argument, _lit(widen.randint(1, 9)))
        elif dtype is DataType.FLOAT:
            argument = A.AstBinary("*", argument, _lit(2))
        else:
            return aggregate
        return A.AstFunction(
            aggregate.name, (argument,), aggregate.star, aggregate.distinct
        )

    def having(self, bound: int, ops: list[str]) -> A.AstExpression:
        """``count(*) <op> k``; in an expression-aggregate case, half the
        time ``count(*) in (k1, k2)`` (drawn after, so the main rng's draws
        are the same either way)."""
        rng = self.rng
        count_star = A.AstFunction("count", (), star=True)
        having = A.AstBinary(rng.choice(ops), count_star, _lit(rng.randint(0, bound)))
        widen = self.expressions
        if widen is not None and widen.random() < 0.5:
            items = (_lit(widen.randint(0, bound)), _lit(widen.randint(0, bound)))
            having = A.AstInList(count_star, items)
        return having

    def _aggregate_item(self, columns: list[FuzzColumn], dtype: DataType):
        rng = self.rng
        numeric = [c for c in columns if c.dtype in _NUMERIC]
        if dtype is DataType.INTEGER:
            kind = rng.choice(["count_star", "count", "count_distinct", "minmax_int"])
            if kind == "count_star":
                return A.AstFunction("count", (), star=True)
            if kind == "count":
                return A.AstFunction("count", (_col(rng.choice(columns)),))
            if kind == "count_distinct":
                return A.AstFunction(
                    "count", (_col(rng.choice(columns)),), distinct=True
                )
            ints = [c for c in columns if c.dtype is DataType.INTEGER]
            if ints:
                return A.AstFunction(
                    rng.choice(["min", "max", "sum"]), (_col(rng.choice(ints)),)
                )
            return A.AstFunction("count", (), star=True)
        if dtype is DataType.FLOAT:
            if numeric:
                fn = rng.choice(["avg", "sum", "min", "max"])
                return A.AstFunction(fn, (_col(rng.choice(numeric)),))
            return None
        strings = [c for c in columns if c.dtype is DataType.STRING]
        if strings:
            return A.AstFunction(
                rng.choice(["min", "max"]), (_col(rng.choice(strings)),)
            )
        return None

    # -- query shapes --------------------------------------------------

    def _output_dtype(self, columns: list[FuzzColumn]) -> DataType:
        """An output-column type; STRING only when a string column exists
        (so every union branch can produce items/aggregates of the type)."""
        pool = [DataType.INTEGER, DataType.FLOAT]
        if any(c.dtype is DataType.STRING for c in columns):
            pool.append(DataType.STRING)
        return self.rng.choice(pool)

    def from_clause(
        self, want_join: bool
    ) -> tuple[tuple[A.AstNode, ...], A.AstExpression | None, list[FuzzColumn]]:
        """FROM items + join predicate + the columns they bring in scope."""
        if self.region is not None:
            return self.region_from()
        rng = self.rng
        tables = self.db.tables
        first = rng.choice(tables)
        if not want_join or len(tables) < 2:
            return (A.AstTableRef(first.name),), None, list(first.columns)
        # Prefer an FK pair; fall back to any same-type column pair.
        candidates = []
        for child, child_col, parent, parent_col in self.db.foreign_keys:
            candidates.append((child, child_col, parent, parent_col))
        if candidates and rng.random() < 0.8:
            child, child_col, parent, parent_col = rng.choice(candidates)
            left, right = self.db.table(child), self.db.table(parent)
            condition = A.AstBinary("=", A.AstColumn(child_col), A.AstColumn(parent_col))
        else:
            second = rng.choice([t for t in tables if t is not first])
            pairs = [
                (a, b)
                for a in first.columns
                for b in second.columns
                if a.dtype is b.dtype
            ]
            if not pairs:
                return (A.AstTableRef(first.name),), None, list(first.columns)
            a, b = rng.choice(pairs)
            left, right = first, second
            condition = A.AstBinary("=", _col(a), _col(b))
        condition = self.join_condition(condition)
        columns = list(left.columns) + list(right.columns)
        if rng.random() < 0.5 and condition is not None:
            items = (
                A.AstJoin(
                    A.AstTableRef(left.name), A.AstTableRef(right.name), condition
                ),
            )
            return items, None, columns
        items = (A.AstTableRef(left.name), A.AstTableRef(right.name))
        return items, condition, columns

    def join_condition(self, equality: A.AstBinary) -> A.AstBinary | None:
        """The two-table join's condition: ``equality`` itself, or in a
        keyless-join case ``<``, ``<>`` or ``>=`` between the same columns,
        and one time in four no condition at all (a comma join)."""
        if self.keyless is None:
            return equality
        if self.keyless.random() < 0.25:
            return None
        op = self.keyless.choice(["<", "<>", ">="])
        return A.AstBinary(op, equality.left, equality.right)

    def region_from(
        self,
    ) -> tuple[tuple[A.AstNode, ...], A.AstExpression, list[FuzzColumn]]:
        """Every table, in shuffled order, joined by its FK conditions (also
        shuffled) as one comma join."""
        tables = list(self.db.tables)
        self.region.shuffle(tables)
        conditions = [
            A.AstBinary("=", A.AstColumn(child_col), A.AstColumn(parent_col))
            for _, child_col, _, parent_col in self.db.foreign_keys
        ]
        self.region.shuffle(conditions)
        where = conditions[0]
        for condition in conditions[1:]:
            where = A.AstBinary("and", where, condition)
        items = tuple(A.AstTableRef(table.name) for table in tables)
        return items, where, [c for table in tables for c in table.columns]

    def other_tables(self, in_scope: list[FuzzColumn]) -> list[FuzzTable]:
        scoped = {c.name for c in in_scope}
        return [
            t
            for t in self.db.tables
            if not any(c.name in scoped for c in t.columns)
        ]

    # -- plain (non-GApply) queries -----------------------------------

    def plain_query(self) -> A.AstQuery:
        rng = self.rng
        from_items, join_pred, columns = self.from_clause(rng.random() < 0.4)
        subq_tables = self.other_tables(columns)
        if rng.random() < 0.35:
            select = self._grouped_select(from_items, join_pred, columns, subq_tables)
            return A.AstQuery((select,))
        n_items = rng.randint(1, 3)
        dtypes = [self._output_dtype(columns) for _ in range(n_items)]
        selects = []
        for _ in range(rng.choice([1, 1, 1, 2])):
            items = tuple(
                A.AstSelectItem(self.scalar(columns, dtype), alias=f"c{i}")
                for i, dtype in enumerate(dtypes)
            )
            where = join_pred
            if rng.random() < 0.8:
                extra = self.predicate(columns, subq_tables)
                where = A.AstBinary("and", where, extra) if where else extra
            selects.append(
                A.AstSelect(
                    items=items,
                    from_items=from_items,
                    where=where,
                    distinct=rng.random() < 0.25,
                )
            )
        union_all = len(selects) == 1 or rng.random() < 0.8
        return A.AstQuery(tuple(selects), union_all=union_all)

    def _grouped_select(
        self, from_items, join_pred, columns, subq_tables
    ) -> A.AstSelect:
        rng = self.rng
        group_col = rng.choice(
            [c for c in columns if c.role in ("group", "fk")] or columns
        )
        items = [A.AstSelectItem(_col(group_col), alias="k")]
        for i in range(rng.randint(1, 2)):
            agg = None
            while agg is None:
                agg = self.aggregate_item(columns, self._output_dtype(columns))
            items.append(A.AstSelectItem(agg, alias=f"a{i}"))
        where = join_pred
        if rng.random() < 0.5:
            extra = self.predicate(columns, subq_tables)
            where = A.AstBinary("and", where, extra) if where else extra
        having = None
        if rng.random() < 0.3:
            having = self.having(4, ["<", "<=", ">", ">=", "="])
        return A.AstSelect(
            items=tuple(items),
            from_items=from_items,
            where=where,
            group_by=(group_col.name,),
            having=having,
        )

    # -- GApply queries ------------------------------------------------

    def gapply_query(self) -> A.AstQuery:
        rng = self.rng
        from_items, join_pred, columns = self.from_clause(rng.random() < 0.4)
        subq_tables = self.other_tables(columns)
        key_candidates = [c for c in columns if c.role in ("group", "fk")] or columns
        n_keys = min(len(key_candidates), rng.choice([1, 1, 1, 2]))
        keys = rng.sample(key_candidates, n_keys)

        outer_where = join_pred
        if rng.random() < 0.4:
            extra = self.predicate(columns, subq_tables)
            outer_where = (
                A.AstBinary("and", outer_where, extra) if outer_where else extra
            )

        n_cols = rng.randint(1, 3)
        dtypes = [self._output_dtype(columns) for _ in range(n_cols)]
        n_branches = rng.choice([1, 1, 2, 2, 3])
        branches = tuple(
            self._pgq_branch(columns, dtypes) for _ in range(n_branches)
        )
        union_all = n_branches == 1 or rng.random() < 0.85
        pgq = A.AstQuery(branches, union_all=union_all)
        names = tuple(f"o{i}" for i in range(n_cols))
        select = A.AstSelect(
            items=(),
            from_items=from_items,
            where=outer_where,
            group_by=tuple(k.name for k in keys),
            group_variable=GROUP_VARIABLE,
            gapply=A.AstGApplyItem(pgq, names),
        )
        return A.AstQuery((select,))

    def _pgq_branch(self, columns, dtypes) -> A.AstSelect:
        rng = self.rng
        kind = rng.choice(["row", "row", "agg", "agg", "grouped"])
        if kind == "grouped":
            # The inner grouping key occupies output position 0, so it must
            # match that position's type plan.
            if len(dtypes) < 2 or not any(c.dtype is dtypes[0] for c in columns):
                kind = "agg"
        if kind == "row":
            items = tuple(
                A.AstSelectItem(self.scalar(columns, dtype))
                for dtype in dtypes
            )
            where = None
            if rng.random() < 0.7:
                where = self.predicate(columns, [], group_columns=columns)
            return A.AstSelect(
                items=items,
                from_items=(A.AstTableRef(GROUP_VARIABLE),),
                where=where,
                distinct=rng.random() < 0.2,
            )
        if kind == "agg":
            items = []
            aggregate_positions = []
            for position, dtype in enumerate(dtypes):
                agg = (
                    self.aggregate_item(columns, dtype)
                    if rng.random() < 0.7
                    else None
                )
                if agg is not None:
                    aggregate_positions.append(position)
                    items.append(A.AstSelectItem(agg))
                else:
                    value = (
                        self.literal_for(dtype) if rng.random() < 0.7 else _lit(None)
                    )
                    items.append(A.AstSelectItem(value))
            if not aggregate_positions:
                # Every position must stay on its type plan; _output_dtype
                # guarantees an aggregate exists for each planned type.
                position = rng.randrange(len(dtypes))
                agg = None
                while agg is None:
                    agg = self.aggregate_item(columns, dtypes[position])
                items[position] = A.AstSelectItem(agg)
            where = None
            if rng.random() < 0.5:
                where = self.predicate(columns, [], group_columns=columns)
            return A.AstSelect(
                items=tuple(items),
                from_items=(A.AstTableRef(GROUP_VARIABLE),),
                where=where,
            )
        # Grouped branch: group the group's rows again by some column
        # type-matching output position 0 (checked above).
        inner_key = rng.choice([c for c in columns if c.dtype is dtypes[0]])
        items = [A.AstSelectItem(_col(inner_key))]
        for dtype in dtypes[1:]:
            agg = None
            while agg is None:
                agg = self.aggregate_item(columns, dtype)
            items.append(A.AstSelectItem(agg))
        having = None
        if rng.random() < 0.4:
            having = self.having(3, ["<", "<=", ">", ">="])
        return A.AstSelect(
            items=tuple(items),
            from_items=(A.AstTableRef(GROUP_VARIABLE),),
            where=self.atom(columns) if rng.random() < 0.4 else None,
            group_by=(inner_key.name,),
            having=having,
        )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def expression_aggregates(query: A.AstQuery) -> bool:
    """Whether ``query`` aggregates an expression, or tests an aggregate
    against an IN list: the shapes an expression-aggregate case draws."""
    for node in walk(query, A.AST):
        if isinstance(node, A.AstInList):
            node = node.operand
            if isinstance(node, A.AstFunction) and node.name in AGGREGATE_NAMES:
                return True
        elif isinstance(node, A.AstFunction) and node.name in AGGREGATE_NAMES:
            if any(not isinstance(arg, A.AstColumn) for arg in node.args):
                return True
    return False


@dataclass
class FuzzCase:
    """One reproducible fuzz input: seed, database, query."""

    seed: int
    db: FuzzDatabase
    query: A.AstQuery

    @property
    def sql(self) -> str:
        return print_query(self.query)


def generate_case(seed: int, nonfinite: bool = False) -> FuzzCase:
    """The case of ``seed``: about one in five is a join-region case, one in
    five an expression-aggregate case, one in five a keyless-join case, and
    with ``nonfinite`` about one in five a nonfinite case (the rest are the
    cases drawn without them)."""
    rng = random.Random(seed)
    extra = random.Random(f"nonfinite:{seed}")
    floats = extra if nonfinite and extra.random() < 0.2 else None
    joins = random.Random(f"joins:{seed}")
    region = joins if joins.random() < JOIN_REGION_SHARE else None
    parents = _region_parents(region) if region is not None else None
    db = generate_database(rng, floats, parents)
    while all(not t.rows for t in db.tables) and len(db.tables) < 4:
        # An all-empty database exercises nothing; re-roll data sizes.
        db = generate_database(rng, floats, parents)
    exprs = random.Random(f"exprs:{seed}")
    expressions = exprs if exprs.random() < EXPRESSION_AGGREGATE_SHARE else None
    draw = random.Random(f"keyless:{seed}")
    keyless = draw if draw.random() < 0.2 else None
    gen = _QueryGenerator(rng, db, region, expressions, keyless)
    if rng.random() < 0.55:
        query = gen.gapply_query()
    else:
        query = gen.plain_query()
    return FuzzCase(seed=seed, db=db, query=query)
