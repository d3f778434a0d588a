"""Unit tests for column/table statistics."""

import pytest

from repro.storage.statistics import (
    compute_column_statistics,
    compute_table_statistics,
    count_distinct_rows,
)
from repro.storage.table import table_from_rows
from repro.storage.types import DataType


class TestColumnStatistics:
    def test_counts(self):
        stats = compute_column_statistics([1, 2, 2, None, 3])
        assert stats.row_count == 5
        assert stats.null_count == 1
        assert stats.distinct_count == 3
        assert stats.min_value == 1
        assert stats.max_value == 3

    def test_null_fraction(self):
        stats = compute_column_statistics([None, None, 1, 2])
        assert stats.null_fraction == pytest.approx(0.5)

    def test_empty_column(self):
        stats = compute_column_statistics([])
        assert stats.row_count == 0
        assert stats.null_fraction == 0.0
        assert stats.selectivity_eq(5) == 0.0

    def test_selectivity_eq_uniform(self):
        stats = compute_column_statistics(list(range(10)))
        assert stats.selectivity_eq(3) == pytest.approx(0.1)

    def test_selectivity_eq_outside_the_range_is_zero(self):
        stats = compute_column_statistics([1, 2, 9, None])
        assert stats.selectivity_eq(44) == 0.0
        assert stats.selectivity_eq(0.5) == 0.0
        assert stats.selectivity_eq(5) == pytest.approx(0.75 / 3)

    def test_selectivity_eq_null_is_zero(self):
        stats = compute_column_statistics([1, 2, 3])
        assert stats.selectivity_eq(None) == 0.0

    def test_histogram_built_for_numeric_spread(self):
        stats = compute_column_statistics(list(range(100)))
        assert stats.histogram
        assert sum(b.count for b in stats.histogram) == 100

    def test_histogram_range_selectivity(self):
        stats = compute_column_statistics([float(i) for i in range(100)])
        # Roughly a quarter of values lie in [0, 25).
        estimate = stats.selectivity_range(0.0, 25.0)
        assert 0.2 <= estimate <= 0.3

    def test_range_selectivity_without_histogram(self):
        stats = compute_column_statistics(["a", "b", "c"])
        assert 0.0 <= stats.selectivity_range(None, None) <= 1.0

    def test_range_selectivity_outside_domain(self):
        stats = compute_column_statistics([float(i) for i in range(10)])
        assert stats.selectivity_range(100.0, 200.0) == pytest.approx(0.0)

    def test_no_histogram_for_strings(self):
        stats = compute_column_statistics(["x", "y"])
        assert stats.histogram == ()

    def test_nan_lands_in_no_histogram_bucket(self):
        stats = compute_column_statistics([1.0, float("nan"), 2.0, 3.0])
        assert sum(b.count for b in stats.histogram) == 3

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.ANY])
    def test_every_nan_counts_as_one_distinct_value(self, dtype):
        nan, other_nan = float("nan"), float("inf") - float("inf")
        stats = compute_column_statistics(
            [nan, 1.0, other_nan, -0.0, 0.0, None], dtype=dtype
        )
        assert stats.distinct_count == 3  # NaN, 1.0 and ±0.0

    @pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.ANY])
    def test_nan_position_does_not_change_the_range(self, dtype):
        nan = float("nan")
        first = compute_column_statistics([nan, 1.0, 2.0, 3.0, 4.0], dtype=dtype)
        last = compute_column_statistics([1.0, 2.0, 3.0, 4.0, nan], dtype=dtype)
        assert first == last
        assert (first.min_value, first.max_value) == (1.0, 4.0)
        assert first.histogram
        assert first.selectivity_range(None, 2.5) == last.selectivity_range(
            None, 2.5
        )

    def test_all_nan_column_has_no_range(self):
        stats = compute_column_statistics([float("nan")] * 3, dtype=DataType.FLOAT)
        assert (stats.min_value, stats.max_value) == (None, None)
        assert stats.histogram == ()

    def test_no_histogram_for_booleans(self):
        stats = compute_column_statistics([True, False, True])
        assert stats.histogram == ()


class TestTableStatistics:
    def test_table_statistics_keys(self):
        table = table_from_rows(
            "t",
            [("a", DataType.INTEGER), ("b", DataType.STRING)],
            [(1, "x"), (2, "x")],
        )
        stats = compute_table_statistics(table)
        assert stats.row_count == 2
        assert stats.column("a").distinct_count == 2
        assert stats.column("t.b").distinct_count == 1

    def test_distinct_count_fallback(self):
        table = table_from_rows("t", [("a", DataType.INTEGER)], [(i,) for i in range(100)])
        stats = compute_table_statistics(table)
        assert stats.distinct_count("nonexistent") >= 1


class TestCountDistinctRows:
    def test_counts_combinations(self):
        rows = [(1, "a"), (1, "a"), (1, "b"), (2, "a")]
        assert count_distinct_rows(rows, [0]) == 2
        assert count_distinct_rows(rows, [0, 1]) == 3

    def test_nulls_form_one_group(self):
        rows = [(None,), (None,), (1,)]
        assert count_distinct_rows(rows, [0]) == 2
