"""Scalar expression language.

Expressions are immutable trees evaluated over single rows. The contract:

* ``compile(schema)`` returns a closure ``(row, ctx) -> value`` with all
  column lookups resolved to tuple positions up front — plans are compiled
  once and the closures run per row, which is what makes the Python engine
  fast enough for the paper's benchmarks.
* Values follow the SQL domain of :mod:`repro.storage.types`: ``None`` is
  NULL, boolean-valued expressions return ``True``/``False``/``None``
  (a nullable boolean — the value-level image of three-valued logic).
* ``ctx`` is the :class:`~repro.execution.context.ExecutionContext`; the only
  expression that reads it is :class:`Parameter`, the correlated-scalar
  reference created when the binder turns a subquery into an Apply.

Aggregate *functions* are not general expressions — SQL only allows them in
aggregation operators — so they live in :class:`AggregateCall`, consumed by
the GroupBy/Aggregate logical operators.

The tree structure is written once, in :mod:`repro.algebra.tree`: an
expression's children are its expression-typed fields (``CaseWhen``'s
pairs flattened), and ``children``, ``columns``, ``parameters`` and
``substitute`` are derived on :class:`Expression`; only
:class:`ColumnRef` adds to them.
The per-value semantics of comparisons, arithmetic and IN
(:func:`comparison_function`, :func:`arithmetic_function`,
:func:`in_list`) are shared with the vector kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.algebra.tree import layouts, lazy_children, rewrite, walk
from repro.errors import ExecutionError, TypeCheckError
from repro.storage.schema import Schema
from repro.storage.types import (
    DataType,
    compare_values,
    format_value,
    infer_type,
    value_key,
)

Evaluator = Callable[[tuple, Any], Any]


class Expression:
    """Base class for scalar expressions. Immutable; subclasses are
    dataclasses so structural equality works for optimizer rule matching."""

    def compile(self, schema: Schema) -> Evaluator:
        raise NotImplementedError

    def columns(self) -> frozenset[str]:
        """Column references (as written, possibly qualified) in this tree."""
        result: frozenset[str] = frozenset()
        for child in self.children():
            result |= child.columns()
        return result

    def parameters(self) -> frozenset[str]:
        """Names of correlated parameters referenced in this tree."""
        nodes = walk(self, EXPRESSION)
        return frozenset(node.name for node in nodes if type(node) is Parameter)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "children" not in cls.__dict__:
            cls.children = lazy_children(cls, _LAYOUTS)

    def children(self) -> tuple["Expression", ...]:
        """The expression-typed fields, in field order (see
        :mod:`repro.algebra.tree`)."""
        return _LAYOUTS[type(self)].children(self)

    def substitute(self, mapping: Mapping[str, "Expression"]) -> "Expression":
        """Replace column references per ``mapping`` (used by rewrites)."""

        def visit(node: Expression) -> Expression:
            return node.substitute(mapping) if type(node) is ColumnRef else node

        return rewrite(self, EXPRESSION, visit)

    def infer(self, schema: Schema) -> DataType:
        """Static result type against ``schema`` (ANY when unknown)."""
        return DataType.ANY

    def __str__(self) -> str:  # pragma: no cover - subclasses override
        return repr(self)


#: The kinds of a traversal of one expression tree.
EXPRESSION = (Expression,)
_LAYOUTS = layouts(EXPRESSION)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by (possibly qualified) name."""

    name: str

    def compile(self, schema: Schema) -> Evaluator:
        position = schema.index_of(self.name)
        return lambda row, ctx: row[position]

    def columns(self) -> frozenset[str]:
        return frozenset((self.name,))

    def substitute(self, mapping: Mapping[str, Expression]) -> Expression:
        return mapping.get(self.name, self)

    def infer(self, schema: Schema) -> DataType:
        if schema.has(self.name):
            return schema.column(self.name).dtype
        return DataType.ANY

    @property
    def bare_name(self) -> str:
        return self.name.rsplit(".", 1)[-1]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(Expression):
    """A constant SQL value (``None`` is the NULL literal)."""

    value: Any

    def compile(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row, ctx: value

    def infer(self, schema: Schema) -> DataType:
        return infer_type(self.value)

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return format_value(self.value)

    # Equal literals must be interchangeable, because the optimizer merges
    # equal subtrees. Python's equality is too coarse for that: ``2``,
    # ``2.0`` and ``True`` are one value to it but divide, add and print
    # differently in SQL, and ``0.0 == -0.0`` although they print apart.
    # So the value's type is part of the comparison, and a float compares
    # by its exact spelling.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def _identity(self) -> tuple:
        value = self.value
        return (type(value), repr(value) if type(value) is float else value)


# eq=False: BindParameter keeps Literal's type-strict __eq__ and __hash__.
@dataclass(frozen=True, eq=False)
class BindParameter(Literal):
    """A prepared-statement parameter slot carrying its seed value.

    Subclassing :class:`Literal` is the load-bearing design choice of the
    plan cache: every consumer that special-cases literals — the cost
    model's value-dependent selectivity, rewrite-rule matching, type
    inference — sees the seed ``value`` and behaves exactly as if the
    original literal were still in place, so a plan optimized from a
    parameterized tree is the same plan the literal query would get. The
    extra ``index`` ties the slot to a position in the parameter vector;
    execution never sees a BindParameter (the cache substitutes plain
    Literals before lowering).

    Distinct from :class:`Parameter`, the *correlated* scalar bound by an
    enclosing Apply: rules treat ``parameters()`` as correlation markers,
    so reusing it here would make every parameterized predicate look
    correlated and block pushdown. BindParameter inherits Literal's empty
    ``parameters()``.
    """

    index: int = 0

    def __str__(self) -> str:
        return f"${self.index + 1}"

    def _identity(self) -> tuple:
        return (*super()._identity(), self.index)


@dataclass(frozen=True)
class Parameter(Expression):
    """A correlated scalar parameter bound by an enclosing Apply.

    The executor stores parameter values in the execution context under the
    parameter's name; compiling a Parameter closes over that name.
    """

    name: str

    def compile(self, schema: Schema) -> Evaluator:
        name = self.name
        def evaluate(row: tuple, ctx: Any) -> Any:
            if ctx is None:
                raise ExecutionError(
                    f"parameter {name!r} referenced outside an Apply"
                )
            return ctx.scalar(name)
        return evaluate

    def __str__(self) -> str:
        return f"${self.name}"


class ComparisonOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "ComparisonOp":
        """The operator with sides exchanged (a < b  <=>  b > a)."""
        return {
            ComparisonOp.EQ: ComparisonOp.EQ,
            ComparisonOp.NE: ComparisonOp.NE,
            ComparisonOp.LT: ComparisonOp.GT,
            ComparisonOp.LE: ComparisonOp.GE,
            ComparisonOp.GT: ComparisonOp.LT,
            ComparisonOp.GE: ComparisonOp.LE,
        }[self]

    def negate(self) -> "ComparisonOp":
        return {
            ComparisonOp.EQ: ComparisonOp.NE,
            ComparisonOp.NE: ComparisonOp.EQ,
            ComparisonOp.LT: ComparisonOp.GE,
            ComparisonOp.LE: ComparisonOp.GT,
            ComparisonOp.GT: ComparisonOp.LE,
            ComparisonOp.GE: ComparisonOp.LT,
        }[self]


_COMPARISON_TESTS: dict[ComparisonOp, Callable[[int], bool]] = {
    ComparisonOp.EQ: lambda c: c == 0,
    ComparisonOp.NE: lambda c: c != 0,
    ComparisonOp.LT: lambda c: c < 0,
    ComparisonOp.LE: lambda c: c <= 0,
    ComparisonOp.GT: lambda c: c > 0,
    ComparisonOp.GE: lambda c: c >= 0,
}


def comparison_function(op: ComparisonOp) -> Callable[[Any, Any], Any]:
    """``op`` on two values by :func:`compare_values` (NULL if either is)."""
    test = _COMPARISON_TESTS[op]

    def compare(left: Any, right: Any) -> Any:
        cmp = compare_values(left, right)
        return None if cmp is None else test(cmp)

    return compare


@dataclass(frozen=True)
class Comparison(Expression):
    """``left op right`` under SQL comparison semantics (NULL -> NULL)."""

    op: ComparisonOp
    left: Expression
    right: Expression

    def compile(self, schema: Schema) -> Evaluator:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        compare = comparison_function(self.op)
        return lambda row, ctx: compare(left(row, ctx), right(row, ctx))

    def infer(self, schema: Schema) -> DataType:
        return DataType.BOOLEAN

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class And(Expression):
    """N-ary conjunction under Kleene logic."""

    operands: tuple[Expression, ...]

    def __init__(self, *operands: Expression | Sequence[Expression]):
        flat: list[Expression] = []
        for operand in operands:
            if isinstance(operand, Expression):
                flat.append(operand)
            else:
                flat.extend(operand)
        object.__setattr__(self, "operands", tuple(flat))

    def compile(self, schema: Schema) -> Evaluator:
        compiled = [op.compile(schema) for op in self.operands]
        def evaluate(row: tuple, ctx: Any) -> Any:
            saw_null = False
            for fn in compiled:
                value = fn(row, ctx)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True
        return evaluate

    def infer(self, schema: Schema) -> DataType:
        return DataType.BOOLEAN

    def __str__(self) -> str:
        return "(" + " AND ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(Expression):
    """N-ary disjunction under Kleene logic."""

    operands: tuple[Expression, ...]

    def __init__(self, *operands: Expression | Sequence[Expression]):
        flat: list[Expression] = []
        for operand in operands:
            if isinstance(operand, Expression):
                flat.append(operand)
            else:
                flat.extend(operand)
        object.__setattr__(self, "operands", tuple(flat))

    def compile(self, schema: Schema) -> Evaluator:
        compiled = [op.compile(schema) for op in self.operands]
        def evaluate(row: tuple, ctx: Any) -> Any:
            saw_null = False
            for fn in compiled:
                value = fn(row, ctx)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False
        return evaluate

    def infer(self, schema: Schema) -> DataType:
        return DataType.BOOLEAN

    def __str__(self) -> str:
        return "(" + " OR ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    operand: Expression

    def compile(self, schema: Schema) -> Evaluator:
        inner = self.operand.compile(schema)
        def evaluate(row: tuple, ctx: Any) -> Any:
            value = inner(row, ctx)
            return None if value is None else not value
        return evaluate

    def infer(self, schema: Schema) -> DataType:
        return DataType.BOOLEAN

    def __str__(self) -> str:
        return f"(NOT {self.operand})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``operand IS [NOT] NULL`` — never returns NULL itself."""

    operand: Expression
    negated: bool = False

    def compile(self, schema: Schema) -> Evaluator:
        inner = self.operand.compile(schema)
        negated = self.negated
        def evaluate(row: tuple, ctx: Any) -> Any:
            is_null = inner(row, ctx) is None
            return not is_null if negated else is_null
        return evaluate

    def infer(self, schema: Schema) -> DataType:
        return DataType.BOOLEAN

    def __str__(self) -> str:
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand} {word})"


class ArithmeticOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"


def arithmetic_function(op: ArithmeticOp) -> Callable[[Any, Any], Any]:
    """``op`` on two values: NULL propagates, a non-number (a bool too)
    raises TypeCheckError, a zero divisor raises, and integer division
    truncates toward zero."""

    def apply(lv: Any, rv: Any) -> Any:
        if lv is None or rv is None:
            return None
        if not isinstance(lv, (int, float)) or isinstance(lv, bool):
            raise TypeCheckError(f"non-numeric operand {lv!r} for {op.value}")
        if not isinstance(rv, (int, float)) or isinstance(rv, bool):
            raise TypeCheckError(f"non-numeric operand {rv!r} for {op.value}")
        if op is ArithmeticOp.ADD:
            return lv + rv
        if op is ArithmeticOp.SUB:
            return lv - rv
        if op is ArithmeticOp.MUL:
            return lv * rv
        if rv == 0:
            raise ExecutionError(f"division by zero: {lv} {op.value} {rv}")
        if op is ArithmeticOp.DIV:
            if isinstance(lv, int) and isinstance(rv, int):
                quotient = abs(lv) // abs(rv)
                return quotient if (lv >= 0) == (rv >= 0) else -quotient
            return lv / rv
        return lv % rv

    return apply


@dataclass(frozen=True)
class Arithmetic(Expression):
    """Numeric arithmetic with NULL propagation; division by zero raises."""

    op: ArithmeticOp
    left: Expression
    right: Expression

    def compile(self, schema: Schema) -> Evaluator:
        left = self.left.compile(schema)
        right = self.right.compile(schema)
        apply = arithmetic_function(self.op)
        return lambda row, ctx: apply(left(row, ctx), right(row, ctx))

    def infer(self, schema: Schema) -> DataType:
        lt = self.left.infer(schema)
        rt = self.right.infer(schema)
        if DataType.FLOAT in (lt, rt) or self.op is ArithmeticOp.DIV:
            return DataType.FLOAT
        if lt is DataType.INTEGER and rt is DataType.INTEGER:
            return DataType.INTEGER
        return DataType.ANY

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class Negate(Expression):
    operand: Expression

    def compile(self, schema: Schema) -> Evaluator:
        inner = self.operand.compile(schema)
        def evaluate(row: tuple, ctx: Any) -> Any:
            value = inner(row, ctx)
            return None if value is None else -value
        return evaluate

    def infer(self, schema: Schema) -> DataType:
        return self.operand.infer(schema)

    def __str__(self) -> str:
        return f"(-{self.operand})"


def in_list(value: Any, candidates: Iterable[Any], negated: bool) -> Any:
    """``value [NOT] IN candidates``: NULL for a NULL value, or when nothing
    matched and a candidate was NULL. Consumes ``candidates`` only up to
    the first match."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif compare_values(value, candidate) == 0:
            return not negated
    return None if saw_null else negated


@dataclass(frozen=True)
class InList(Expression):
    """``operand IN (v1, v2, ...)`` with SQL NULL semantics."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def compile(self, schema: Schema) -> Evaluator:
        inner = self.operand.compile(schema)
        compiled_items = [item.compile(schema) for item in self.items]
        negated = self.negated

        def evaluate(row: tuple, ctx: Any) -> Any:
            # A generator: items after the first match are not evaluated.
            candidates = (fn(row, ctx) for fn in compiled_items)
            return in_list(inner(row, ctx), candidates, negated)

        return evaluate

    def infer(self, schema: Schema) -> DataType:
        return DataType.BOOLEAN

    def __str__(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        inner = ", ".join(str(item) for item in self.items)
        return f"({self.operand} {word} ({inner}))"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN value ... ELSE default END``."""

    whens: tuple[tuple[Expression, Expression], ...]
    default: Expression = field(default_factory=lambda: Literal(None))

    def compile(self, schema: Schema) -> Evaluator:
        compiled = [
            (cond.compile(schema), value.compile(schema))
            for cond, value in self.whens
        ]
        default = self.default.compile(schema)
        def evaluate(row: tuple, ctx: Any) -> Any:
            for cond, value in compiled:
                if cond(row, ctx) is True:
                    return value(row, ctx)
            return default(row, ctx)
        return evaluate

    def __str__(self) -> str:
        parts = [f"WHEN {cond} THEN {value}" for cond, value in self.whens]
        return "CASE " + " ".join(parts) + f" ELSE {self.default} END"


def _fn_concat(*args: Any) -> Any:
    if any(a is None for a in args):
        return None
    return "".join(str(a) for a in args)


def _fn_abs(value: Any) -> Any:
    return None if value is None else abs(value)


def _fn_round(value: Any, digits: Any = 0) -> Any:
    if value is None or digits is None:
        return None
    return round(value, int(digits))


def _fn_length(value: Any) -> Any:
    return None if value is None else len(str(value))


def _fn_substring(value: Any, start: Any, length: Any = None) -> Any:
    """1-based SQL SUBSTRING."""
    if value is None or start is None:
        return None
    text = str(value)
    begin = max(0, int(start) - 1)
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


def _fn_upper(value: Any) -> Any:
    return None if value is None else str(value).upper()


def _fn_lower(value: Any) -> Any:
    return None if value is None else str(value).lower()


def _fn_coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _fn_bitxor(left: Any, right: Any) -> Any:
    """Bitwise xor on integers; used by the client-side GApply simulation
    (the paper xors miscCols with a counter to force distinct values)."""
    if left is None or right is None:
        return None
    return int(left) ^ int(right)


SCALAR_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "concat": _fn_concat,
    "abs": _fn_abs,
    "round": _fn_round,
    "length": _fn_length,
    "substring": _fn_substring,
    "upper": _fn_upper,
    "lower": _fn_lower,
    "coalesce": _fn_coalesce,
    "bitxor": _fn_bitxor,
}


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Call of a registered scalar function by (case-insensitive) name."""

    name: str
    args: tuple[Expression, ...]

    def __post_init__(self) -> None:
        if self.name.lower() not in SCALAR_FUNCTIONS:
            raise TypeCheckError(
                f"unknown scalar function {self.name!r}; known: "
                + ", ".join(sorted(SCALAR_FUNCTIONS))
            )

    def compile(self, schema: Schema) -> Evaluator:
        fn = SCALAR_FUNCTIONS[self.name.lower()]
        compiled = [arg.compile(schema) for arg in self.args]
        def evaluate(row: tuple, ctx: Any) -> Any:
            return fn(*(c(row, ctx) for c in compiled))
        return evaluate

    def __str__(self) -> str:
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{self.name}({inner})"


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------


class AggregateFunction(enum.Enum):
    COUNT = "count"          # count(expr): non-null inputs
    COUNT_STAR = "count(*)"  # count(*): all rows
    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"

    @property
    def empty_result(self) -> Any:
        """Result over an empty (or all-NULL for COUNT) input.

        COUNT variants return 0; all others return NULL. This is exactly the
        distinction the paper's emptyOnEmpty analysis cares about: an
        aggregate node is never empty-on-empty because of these values.
        """
        if self in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return 0
        return None


@dataclass(frozen=True)
class AggregateCall:
    """One aggregate in a GroupBy/Aggregate operator's output list.

    ``argument`` is ignored (may be None) for COUNT_STAR. ``distinct``
    requests duplicate elimination of the argument before aggregation.
    """

    function: AggregateFunction
    argument: Expression | None = None
    distinct: bool = False
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.function is not AggregateFunction.COUNT_STAR and self.argument is None:
            raise TypeCheckError(f"{self.function.value} requires an argument")
        if self.function is AggregateFunction.COUNT_STAR and self.distinct:
            raise TypeCheckError("COUNT(DISTINCT *) is not valid SQL")

    def columns(self) -> frozenset[str]:
        if self.argument is None:
            return frozenset()
        return self.argument.columns()

    def output_name(self) -> str:
        if self.alias:
            return self.alias
        if self.function is AggregateFunction.COUNT_STAR:
            return "count_star"
        base = str(self.argument).strip("()").replace(".", "_")
        return f"{self.function.value}_{base}"

    def substitute(self, mapping: Mapping[str, Expression]) -> "AggregateCall":
        argument = (
            None if self.argument is None else self.argument.substitute(mapping)
        )
        return AggregateCall(self.function, argument, self.distinct, self.alias)

    def result_type(self, schema: Schema) -> DataType:
        if self.function in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return DataType.INTEGER
        if self.function is AggregateFunction.AVG:
            return DataType.FLOAT
        if self.argument is not None:
            return self.argument.infer(schema)
        return DataType.ANY

    def __str__(self) -> str:
        if self.function is AggregateFunction.COUNT_STAR:
            body = "count(*)"
        else:
            prefix = "distinct " if self.distinct else ""
            body = f"{self.function.value}({prefix}{self.argument})"
        if self.alias:
            body += f" AS {self.alias}"
        return body


#: DISTINCT's key: an accumulator is fed values of any type.
_DISTINCT_KEY = value_key(DataType.ANY)


class AggregateAccumulator:
    """Streaming accumulator for one :class:`AggregateCall`.

    Separated from the expression layer so both the hash aggregate and
    GApply's per-group evaluation reuse it.
    """

    __slots__ = ("call", "_count", "_sum", "_min", "_max", "_distinct")

    def __init__(self, call: AggregateCall):
        self.call = call
        self._count = 0
        self._sum: Any = None
        self._min: Any = None
        self._max: Any = None
        self._distinct: set | None = set() if call.distinct else None

    def add(self, value: Any) -> None:
        """Feed one argument value (for COUNT_STAR feed anything)."""
        function = self.call.function
        if function is AggregateFunction.COUNT_STAR:
            self._count += 1
            return
        if value is None:
            return
        if self._distinct is not None:
            key = _DISTINCT_KEY(value)
            if key in self._distinct:
                return
            self._distinct.add(key)
        self._count += 1
        if function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self._sum = value if self._sum is None else self._sum + value
        elif function is AggregateFunction.MIN:
            if self._min is None or compare_values(value, self._min) < 0:
                self._min = value
        elif function is AggregateFunction.MAX:
            if self._max is None or compare_values(value, self._max) > 0:
                self._max = value

    def result(self) -> Any:
        function = self.call.function
        if function in (AggregateFunction.COUNT, AggregateFunction.COUNT_STAR):
            return self._count
        if function is AggregateFunction.SUM:
            return self._sum
        if function is AggregateFunction.AVG:
            if self._count == 0:
                return None
            return self._sum / self._count
        if function is AggregateFunction.MIN:
            return self._min
        return self._max


# ----------------------------------------------------------------------
# Convenience constructors (keep query-building code readable)
# ----------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


def lit(value: Any) -> Literal:
    return Literal(value)


def eq(left: Expression, right: Expression) -> Comparison:
    return Comparison(ComparisonOp.EQ, left, right)


def ne(left: Expression, right: Expression) -> Comparison:
    return Comparison(ComparisonOp.NE, left, right)


def lt(left: Expression, right: Expression) -> Comparison:
    return Comparison(ComparisonOp.LT, left, right)


def le(left: Expression, right: Expression) -> Comparison:
    return Comparison(ComparisonOp.LE, left, right)


def gt(left: Expression, right: Expression) -> Comparison:
    return Comparison(ComparisonOp.GT, left, right)


def ge(left: Expression, right: Expression) -> Comparison:
    return Comparison(ComparisonOp.GE, left, right)


def count_star(alias: str | None = None) -> AggregateCall:
    return AggregateCall(AggregateFunction.COUNT_STAR, None, alias=alias)


def count(expr: Expression, alias: str | None = None, distinct: bool = False) -> AggregateCall:
    return AggregateCall(AggregateFunction.COUNT, expr, distinct, alias)


def sum_(expr: Expression, alias: str | None = None) -> AggregateCall:
    return AggregateCall(AggregateFunction.SUM, expr, alias=alias)


def avg(expr: Expression, alias: str | None = None) -> AggregateCall:
    return AggregateCall(AggregateFunction.AVG, expr, alias=alias)


def min_(expr: Expression, alias: str | None = None) -> AggregateCall:
    return AggregateCall(AggregateFunction.MIN, expr, alias=alias)


def max_(expr: Expression, alias: str | None = None) -> AggregateCall:
    return AggregateCall(AggregateFunction.MAX, expr, alias=alias)


def conjuncts(expression: Expression | None) -> list[Expression]:
    """Split a predicate into top-level AND conjuncts ([] for None)."""
    if expression is None:
        return []
    if isinstance(expression, And):
        result: list[Expression] = []
        for operand in expression.operands:
            result.extend(conjuncts(operand))
        return result
    return [expression]


def conjoin(predicates: Sequence[Expression]) -> Expression | None:
    """Inverse of :func:`conjuncts`: AND a list back together.

    Structurally duplicate conjuncts are dropped (sound: ``p AND p = p``),
    which keeps optimizer rewrites from stacking the same filter twice.
    """
    flat: list[Expression] = []
    seen: set[Expression] = set()
    for predicate in predicates:
        if predicate is None:
            continue
        for conjunct in conjuncts(predicate):
            if conjunct in seen:
                continue
            seen.add(conjunct)
            flat.append(conjunct)
    if not flat:
        return None
    if len(flat) == 1:
        return flat[0]
    return And(*flat)
