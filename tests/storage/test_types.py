"""Unit tests for the SQL value domain and three-valued logic."""

import datetime
import pickle

import pytest

from repro.errors import TypeCheckError
from repro.storage.types import (
    FALSE,
    NAN_KEY,
    NULL_KEY,
    TRUE,
    UNKNOWN,
    DataType,
    TruthValue,
    check_value,
    common_type,
    compare_values,
    format_value,
    grouping_key,
    infer_type,
    key_function,
    raw_keys,
    sql_eq,
    sql_ge,
    sql_gt,
    sql_le,
    sql_lt,
    sql_ne,
    value_key,
)


class TestInferType:
    def test_integers(self):
        assert infer_type(42) is DataType.INTEGER

    def test_floats(self):
        assert infer_type(3.14) is DataType.FLOAT

    def test_strings(self):
        assert infer_type("hello") is DataType.STRING

    def test_booleans_not_integers(self):
        assert infer_type(True) is DataType.BOOLEAN
        assert infer_type(False) is DataType.BOOLEAN

    def test_dates(self):
        assert infer_type(datetime.date(2003, 6, 9)) is DataType.DATE

    def test_null_is_any(self):
        assert infer_type(None) is DataType.ANY

    def test_unsupported_value(self):
        with pytest.raises(TypeCheckError):
            infer_type([1, 2])


class TestCheckValue:
    def test_null_inhabits_every_type(self):
        for dtype in DataType:
            assert check_value(None, dtype) is None

    def test_integer_promotes_to_float(self):
        assert check_value(3, DataType.FLOAT) == 3

    def test_float_does_not_fit_integer(self):
        with pytest.raises(TypeCheckError):
            check_value(3.5, DataType.INTEGER)

    def test_boolean_is_not_integer(self):
        with pytest.raises(TypeCheckError):
            check_value(True, DataType.INTEGER)

    def test_any_accepts_everything(self):
        assert check_value("x", DataType.ANY) == "x"


class TestCommonType:
    def test_same_type(self):
        assert common_type(DataType.STRING, DataType.STRING) is DataType.STRING

    def test_numeric_widening(self):
        assert common_type(DataType.INTEGER, DataType.FLOAT) is DataType.FLOAT

    def test_any_defers(self):
        assert common_type(DataType.ANY, DataType.STRING) is DataType.STRING
        assert common_type(DataType.DATE, DataType.ANY) is DataType.DATE

    def test_incompatible(self):
        with pytest.raises(TypeCheckError):
            common_type(DataType.STRING, DataType.INTEGER)


class TestTruthValue:
    def test_bool_lowering_only_true_passes(self):
        assert bool(TRUE)
        assert not bool(FALSE)
        assert not bool(UNKNOWN)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (TRUE, TRUE, TRUE),
            (TRUE, FALSE, FALSE),
            (TRUE, UNKNOWN, UNKNOWN),
            (FALSE, UNKNOWN, FALSE),
            (UNKNOWN, UNKNOWN, UNKNOWN),
        ],
    )
    def test_and(self, a, b, expected):
        assert a.and_(b) is expected
        assert b.and_(a) is expected

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (TRUE, FALSE, TRUE),
            (FALSE, FALSE, FALSE),
            (TRUE, UNKNOWN, TRUE),
            (FALSE, UNKNOWN, UNKNOWN),
            (UNKNOWN, UNKNOWN, UNKNOWN),
        ],
    )
    def test_or(self, a, b, expected):
        assert a.or_(b) is expected
        assert b.or_(a) is expected

    def test_not(self):
        assert TRUE.not_() is FALSE
        assert FALSE.not_() is TRUE
        assert UNKNOWN.not_() is UNKNOWN

    def test_of_and_to_sql_roundtrip(self):
        assert TruthValue.of(True) is TRUE
        assert TruthValue.of(False) is FALSE
        assert TruthValue.of(None) is UNKNOWN
        assert TRUE.to_sql() is True
        assert UNKNOWN.to_sql() is None


class TestCompareValues:
    def test_orderings(self):
        assert compare_values(1, 2) == -1
        assert compare_values(2, 1) == 1
        assert compare_values(2, 2) == 0

    def test_null_propagates(self):
        assert compare_values(None, 1) is None
        assert compare_values(1, None) is None
        assert compare_values(None, None) is None

    def test_mixed_numerics(self):
        assert compare_values(1, 1.0) == 0
        assert compare_values(1, 1.5) == -1

    def test_cross_type_rejected(self):
        with pytest.raises(TypeCheckError):
            compare_values(1, "one")

    def test_string_ordering(self):
        assert compare_values("apple", "banana") == -1


class TestSqlComparisons:
    def test_eq(self):
        assert sql_eq(1, 1) is TRUE
        assert sql_eq(1, 2) is FALSE
        assert sql_eq(None, 1) is UNKNOWN

    def test_ne(self):
        assert sql_ne(1, 2) is TRUE
        assert sql_ne(2, 2) is FALSE
        assert sql_ne(None, None) is UNKNOWN

    def test_inequalities(self):
        assert sql_lt(1, 2) is TRUE
        assert sql_le(2, 2) is TRUE
        assert sql_gt(3, 2) is TRUE
        assert sql_ge(2, 3) is FALSE
        assert sql_ge(None, 3) is UNKNOWN


class TestGroupingKey:
    """The one key domain: ``key_function`` per column type, and
    ``grouping_key`` (the ANY key) for values of unknown type."""

    def test_nulls_group_together(self):
        for dtype in DataType:
            key = key_function([dtype])
            assert key((None,)) == key((None,))

    def test_null_key_singleton(self):
        assert key_function([DataType.INTEGER])((None,))[0] is NULL_KEY
        assert grouping_key((None,))[0] is NULL_KEY

    def test_boolean_tagged_apart_from_integers(self):
        for key in (key_function([DataType.BOOLEAN]), grouping_key):
            assert key((True,)) != grouping_key((1,))
            assert key((False,)) != grouping_key((0,))
        assert key_function([DataType.BOOLEAN])((True,)) == grouping_key((True,))

    def test_hashable(self):
        {grouping_key((None, 1, "x", True, float("nan")))}
        {key_function([DataType.FLOAT, DataType.BOOLEAN])((float("nan"), True))}

    def test_null_sorts_first(self):
        key = key_function([DataType.INTEGER])
        keys = [key((v,)) for v in (3, None, 1)]
        assert sorted(keys) == [key((None,)), key((1,)), key((3,))]

    def test_null_key_comparisons(self):
        assert NULL_KEY < 5
        assert not (NULL_KEY > 5)
        assert NULL_KEY <= NULL_KEY
        assert NULL_KEY >= NULL_KEY

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.ANY])
    def test_every_nan_is_one_key(self, dtype):
        key = key_function([dtype])
        nan, other_nan = float("nan"), float("inf") - float("inf")
        assert nan is not other_nan
        assert key((nan,)) == key((other_nan,))
        assert len({key((nan,)), key((other_nan,))}) == 1
        assert key((nan,))[0] is NAN_KEY

    def test_nan_key_sorts_above_infinity(self):
        key = value_key(DataType.FLOAT)
        values = [float("nan"), float("inf"), None, -float("inf"), 0.0, float("nan")]
        assert sorted(map(key, values)) == [
            NULL_KEY, -float("inf"), 0.0, float("inf"), NAN_KEY, NAN_KEY
        ]
        assert NAN_KEY > float("inf") and not (NAN_KEY < float("inf"))
        assert NAN_KEY <= NAN_KEY and NAN_KEY >= NAN_KEY
        assert NULL_KEY < NAN_KEY

    def test_keys_survive_a_pickle_round_trip(self):
        key = key_function([DataType.FLOAT, DataType.INTEGER])((float("nan"), None))
        assert pickle.loads(pickle.dumps(key)) == key
        assert pickle.loads(pickle.dumps(NAN_KEY)) is NAN_KEY

    def test_negative_zero_is_zero(self):
        key = key_function([DataType.FLOAT])
        assert key((-0.0,)) == key((0.0,))
        assert hash(key((-0.0,))) == hash(key((0.0,)))

    def test_equal_values_share_a_key_across_types(self):
        # Hash and index joins key each side by its own column types.
        assert key_function([DataType.FLOAT])((1.0,)) == key_function(
            [DataType.INTEGER]
        )((1,))
        assert key_function([DataType.FLOAT])((float("nan"),)) == grouping_key(
            (float("nan"),)
        )

    def test_raw_key_types(self):
        assert raw_keys([DataType.INTEGER, DataType.STRING, DataType.DATE])
        for dtype in (DataType.FLOAT, DataType.BOOLEAN, DataType.ANY):
            assert not raw_keys([DataType.INTEGER, dtype])


class TestNanRule:
    def test_nan_equals_nan(self):
        assert compare_values(float("nan"), float("nan")) == 0
        assert sql_eq(float("nan"), float("nan")) is TRUE
        assert sql_ne(float("nan"), float("nan")) is FALSE

    def test_nan_above_every_number(self):
        nan = float("nan")
        assert compare_values(nan, float("inf")) == 1
        assert compare_values(-float("inf"), nan) == -1
        assert sql_gt(nan, 10**20) is TRUE
        assert sql_lt(nan, 1.0) is FALSE
        assert sql_ge(nan, nan) is TRUE


class TestFormatValue:
    def test_null(self):
        assert format_value(None) == "NULL"

    def test_booleans(self):
        assert format_value(True) == "TRUE"
        assert format_value(False) == "FALSE"

    def test_float_trimming(self):
        assert format_value(75.0) == "75"

    def test_date(self):
        assert format_value(datetime.date(2003, 6, 9)) == "2003-06-09"
