"""SQL value domain: data types, NULL handling and three-valued logic.

The engine follows SQL semantics throughout:

* ``NULL`` is represented by Python ``None``.
* Comparisons involving NULL yield the third truth value ``UNKNOWN``.
* Predicates keep a row only when they evaluate to ``TRUE`` (never on
  ``UNKNOWN``), exactly as a WHERE clause does.

:class:`TruthValue` implements Kleene three-valued logic, and the helpers in
this module (:func:`compare_values`, :func:`sql_eq`, ...) are the single place
where NULL-aware value comparison is defined; everything above (expressions,
joins, grouping) delegates here.

Keys are the other half of the domain. Every hash, group and order key
(DISTINCT, GROUP BY, GApply's partition, hash and index joins, ORDER BY,
indexes, constraint checks, NDV, the tagger's group cut) is built by the
one key function of its columns' types, :func:`key_function`: NULL maps to
:data:`NULL_KEY` (one group, sorted first), NaN to :data:`NAN_KEY` (one
group, sorted above +inf, PostgreSQL's rule, which :func:`compare_values`
follows too), and a BOOLEAN is tagged so ``True`` never meets ``1``.
INTEGER, STRING and DATE values are their own keys; :func:`raw_keys` tells
a caller it may hash such values as they are.
"""

from __future__ import annotations

import datetime
import enum
from typing import Any, Callable, Sequence

from repro.errors import TypeCheckError


class DataType(enum.Enum):
    """The SQL types supported by the engine.

    The set is deliberately small but covers everything TPC-H and the paper's
    queries need. ``ANY`` is used for columns whose type cannot be inferred
    statically (e.g. a ``NULL`` literal in one branch of a UNION).
    """

    INTEGER = "integer"
    FLOAT = "float"
    STRING = "string"
    BOOLEAN = "boolean"
    DATE = "date"
    ANY = "any"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INTEGER, DataType.FLOAT, DataType.ANY)


_PYTHON_TYPE_MAP: dict[DataType, tuple[type, ...]] = {
    DataType.INTEGER: (int,),
    DataType.FLOAT: (float, int),
    DataType.STRING: (str,),
    DataType.BOOLEAN: (bool,),
    DataType.DATE: (datetime.date,),
}


def infer_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a Python value.

    ``None`` infers to :data:`DataType.ANY` because a NULL belongs to every
    type.
    """
    if value is None:
        return DataType.ANY
    if isinstance(value, bool):  # bool is a subclass of int; check first
        return DataType.BOOLEAN
    if isinstance(value, int):
        return DataType.INTEGER
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.STRING
    if isinstance(value, datetime.date):
        return DataType.DATE
    raise TypeCheckError(f"unsupported Python value for SQL domain: {value!r}")


def check_value(value: Any, expected: DataType) -> Any:
    """Validate that ``value`` inhabits ``expected``; return it unchanged.

    NULL inhabits every type. INTEGER values are accepted where FLOAT is
    expected (SQL numeric promotion) but not the other way around.
    """
    if value is None or expected is DataType.ANY:
        return value
    allowed = _PYTHON_TYPE_MAP[expected]
    if isinstance(value, bool) and expected is not DataType.BOOLEAN:
        raise TypeCheckError(f"boolean value {value!r} where {expected.value} expected")
    if not isinstance(value, allowed):
        raise TypeCheckError(
            f"value {value!r} ({type(value).__name__}) does not inhabit "
            f"SQL type {expected.value}"
        )
    return value


def common_type(left: DataType, right: DataType) -> DataType:
    """The result type when two typed values meet (comparison, UNION, CASE)."""
    if left is right:
        return left
    if DataType.ANY in (left, right):
        return right if left is DataType.ANY else left
    numeric = {DataType.INTEGER, DataType.FLOAT}
    if left in numeric and right in numeric:
        return DataType.FLOAT
    raise TypeCheckError(f"incompatible types: {left.value} and {right.value}")


class TruthValue(enum.Enum):
    """Kleene three-valued logic values used by SQL predicates."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        """A predicate passes only when it is definitely TRUE."""
        return self is TruthValue.TRUE

    def and_(self, other: "TruthValue") -> "TruthValue":
        if TruthValue.FALSE in (self, other):
            return TruthValue.FALSE
        if TruthValue.UNKNOWN in (self, other):
            return TruthValue.UNKNOWN
        return TruthValue.TRUE

    def or_(self, other: "TruthValue") -> "TruthValue":
        if TruthValue.TRUE in (self, other):
            return TruthValue.TRUE
        if TruthValue.UNKNOWN in (self, other):
            return TruthValue.UNKNOWN
        return TruthValue.FALSE

    def not_(self) -> "TruthValue":
        if self is TruthValue.TRUE:
            return TruthValue.FALSE
        if self is TruthValue.FALSE:
            return TruthValue.TRUE
        return TruthValue.UNKNOWN

    @staticmethod
    def of(value: bool | None) -> "TruthValue":
        """Lift a nullable Python boolean into the 3VL domain."""
        if value is None:
            return TruthValue.UNKNOWN
        return TruthValue.TRUE if value else TruthValue.FALSE

    def to_sql(self) -> bool | None:
        """Lower back to a nullable boolean (the SQL BOOLEAN value domain)."""
        if self is TruthValue.UNKNOWN:
            return None
        return self is TruthValue.TRUE


TRUE = TruthValue.TRUE
FALSE = TruthValue.FALSE
UNKNOWN = TruthValue.UNKNOWN


def compare_values(left: Any, right: Any) -> int | None:
    """SQL comparison: return -1/0/+1, or ``None`` when either side is NULL.

    NaN equals NaN and sorts above every other number. Mixed int/float
    comparison is allowed; any other cross-type comparison is
    a type error (SQL would fail to coerce).
    """
    if left is None or right is None:
        return None
    lt, rt = infer_type(left), infer_type(right)
    if lt is not rt and not (lt.is_numeric and rt.is_numeric):
        raise TypeCheckError(
            f"cannot compare {lt.value} value {left!r} with {rt.value} value {right!r}"
        )
    if left < right:
        return -1
    if left > right:
        return 1
    if left == right:
        return 0
    # Unordered: a NaN is on one side, and NaN equals NaN, above all numbers.
    return (left != left) - (right != right)


def sql_eq(left: Any, right: Any) -> TruthValue:
    cmp = compare_values(left, right)
    return UNKNOWN if cmp is None else TruthValue.of(cmp == 0)


def sql_ne(left: Any, right: Any) -> TruthValue:
    cmp = compare_values(left, right)
    return UNKNOWN if cmp is None else TruthValue.of(cmp != 0)


def sql_lt(left: Any, right: Any) -> TruthValue:
    cmp = compare_values(left, right)
    return UNKNOWN if cmp is None else TruthValue.of(cmp < 0)


def sql_le(left: Any, right: Any) -> TruthValue:
    cmp = compare_values(left, right)
    return UNKNOWN if cmp is None else TruthValue.of(cmp <= 0)


def sql_gt(left: Any, right: Any) -> TruthValue:
    cmp = compare_values(left, right)
    return UNKNOWN if cmp is None else TruthValue.of(cmp > 0)


def sql_ge(left: Any, right: Any) -> TruthValue:
    cmp = compare_values(left, right)
    return UNKNOWN if cmp is None else TruthValue.of(cmp >= 0)


class _NullKey:
    """Sentinel that stands in for NULL inside grouping/distinct keys.

    It is equal only to itself and sorts before every concrete value, giving
    the engine a single, deterministic NULL group and a stable sort order.
    """

    _instance: "_NullKey | None" = None

    def __new__(cls) -> "_NullKey":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL_KEY"

    def __lt__(self, other: Any) -> bool:
        return not isinstance(other, _NullKey)

    def __gt__(self, other: Any) -> bool:
        return False

    def __le__(self, other: Any) -> bool:
        return True

    def __ge__(self, other: Any) -> bool:
        return isinstance(other, _NullKey)


NULL_KEY = _NullKey()


class _NanKey:
    """Sentinel that stands in for NaN inside keys: equal only to itself,
    above every number including +inf. All NaNs share it, so they form one
    group and sort together; unpickling returns the same singleton."""

    _instance: "_NanKey | None" = None

    def __new__(cls) -> "_NanKey":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NAN_KEY"

    def __lt__(self, other: Any) -> bool:
        return False

    def __gt__(self, other: Any) -> bool:
        return other is not self

    def __le__(self, other: Any) -> bool:
        return other is self

    def __ge__(self, other: Any) -> bool:
        return True


NAN_KEY = _NanKey()


def _raw_key(value: Any) -> Any:
    return NULL_KEY if value is None else value


def _float_key(value: Any) -> Any:
    if value is None:
        return NULL_KEY
    return NAN_KEY if value != value else value


def _boolean_key(value: Any) -> Any:
    return NULL_KEY if value is None else ("bool", value)


def _any_key(value: Any) -> Any:
    if value is None:
        return NULL_KEY
    if value.__class__ is bool:
        return ("bool", value)
    return NAN_KEY if value != value else value


_VALUE_KEYS: dict[DataType, Callable[[Any], Any]] = {
    DataType.INTEGER: _raw_key,
    DataType.STRING: _raw_key,
    DataType.DATE: _raw_key,
    DataType.FLOAT: _float_key,
    DataType.BOOLEAN: _boolean_key,
    DataType.ANY: _any_key,
}


def value_key(dtype: DataType) -> Callable[[Any], Any]:
    """The key of one value of a ``dtype`` column: hashable, equal exactly
    when GROUP BY puts two values in one group, and ordered as ORDER BY
    orders them (NULLS FIRST, NaN above +inf)."""
    return _VALUE_KEYS[dtype]


def key_function(dtypes: Sequence[DataType]) -> Callable[[tuple], tuple]:
    """The key of a tuple of values typed ``dtypes``: one
    :func:`value_key` per position."""
    keys = tuple(value_key(dtype) for dtype in dtypes)
    if len(keys) == 1:
        (key,) = keys
        return lambda values: (key(values[0]),)
    return lambda values: tuple([key(value) for key, value in zip(keys, values)])


def raw_keys(dtypes: Sequence[DataType]) -> bool:
    """True when values of these types are their own hash keys: every
    type is INTEGER, STRING or DATE. NULL needs no sentinel to hash (None
    equals only itself); it does to sort, so ordering still needs
    :func:`key_function`."""
    return all(_VALUE_KEYS[dtype] is _raw_key for dtype in dtypes)


def grouping_key(values: tuple[Any, ...]) -> tuple[Any, ...]:
    """The key of values of unknown type: :func:`key_function` of ANY
    columns, for callers with no schema (tests, reference oracles, probes
    of an index by arbitrary values)."""
    return tuple([_any_key(value) for value in values])


def format_value(value: Any) -> str:
    """Render a SQL value for display/tagging. NULL renders as ``NULL``."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        # Trim floating noise for stable display without losing precision
        # meaningful at TPC-H money scales.
        return f"{value:.6g}"
    if isinstance(value, datetime.date):
        return value.isoformat()
    return str(value)
