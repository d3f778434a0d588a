"""Column and table statistics for the cost model.

Section 4.4 of the paper estimates the cost of GApply as

    cost(GApply) = #groups x cost(PGQ on one average group)

where ``#groups`` is the number of distinct values in the grouping columns
and the average group size is ``|outer| / #groups``. Selectivities inside the
per-group query are assumed uniform across groups, so statistics gathered on
the whole relation (or on one representative group) suffice.

This module computes exactly the statistics that model needs:

* per-column distinct counts, null fractions, min/max;
* equi-width histograms for range-selectivity estimation;
* multi-column distinct counts for grouping-column sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.storage.table import Row, Table
from repro.storage.types import DataType, grouping_key, raw_keys, value_key

DEFAULT_HISTOGRAM_BUCKETS = 32


@dataclass(frozen=True)
class HistogramBucket:
    """One equi-width bucket: [low, high) except the last which is closed."""

    low: float
    high: float
    count: int


@dataclass
class ColumnStatistics:
    """Summary statistics for one column of a relation."""

    row_count: int
    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None
    histogram: tuple[HistogramBucket, ...] = field(default_factory=tuple)

    @property
    def null_fraction(self) -> float:
        if self.row_count == 0:
            return 0.0
        return self.null_count / self.row_count

    def selectivity_eq(self, value: Any) -> float:
        """Estimated fraction of rows with column = value (uniformity); none
        for a number outside the column's [min, max]."""
        if self.row_count == 0 or value is None:
            return 0.0
        if self.distinct_count == 0:
            return 0.0
        if (
            isinstance(value, (int, float))
            and isinstance(self.min_value, (int, float))
            and isinstance(self.max_value, (int, float))
            and (value < self.min_value or value > self.max_value)
        ):
            return 0.0
        return (1.0 - self.null_fraction) / self.distinct_count

    def selectivity_range(
        self, low: float | None, high: float | None
    ) -> float:
        """Estimated fraction of rows with low <= column <= high.

        Uses the histogram when present, else a linear interpolation over
        [min, max], else the textbook 1/3 default.
        """
        if self.row_count == 0:
            return 0.0
        non_null = self.row_count - self.null_count
        if non_null == 0:
            return 0.0
        if self.histogram:
            covered = 0.0
            for bucket in self.histogram:
                b_low, b_high = bucket.low, bucket.high
                lo = b_low if low is None else max(low, b_low)
                hi = b_high if high is None else min(high, b_high)
                if hi <= lo:
                    continue
                width = b_high - b_low
                fraction = 1.0 if width == 0 else (hi - lo) / width
                covered += bucket.count * min(1.0, fraction)
            return min(1.0, covered / self.row_count)
        if (
            isinstance(self.min_value, (int, float))
            and isinstance(self.max_value, (int, float))
            and self.max_value > self.min_value
        ):
            lo = self.min_value if low is None else max(low, self.min_value)
            hi = self.max_value if high is None else min(high, self.max_value)
            if hi <= lo:
                return 0.0
            span = self.max_value - self.min_value
            return min(1.0, (hi - lo) / span) * (non_null / self.row_count)
        return 1.0 / 3.0


def compute_column_statistics(
    values: Sequence[Any],
    buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    dtype: DataType = DataType.ANY,
) -> ColumnStatistics:
    """Scan one column of type ``dtype`` and produce its
    :class:`ColumnStatistics`."""
    row_count = len(values)
    non_null = [v for v in values if v is not None]
    null_count = row_count - len(non_null)
    raw = raw_keys([dtype])
    distinct = len(set(non_null if raw else map(value_key(dtype), non_null)))
    # NaN compares False with everything, so min/max would return whichever
    # NaN came first: the range is over the other values.
    comparable = non_null if raw else [v for v in non_null if v == v]
    min_value = max_value = None
    histogram: tuple[HistogramBucket, ...] = ()
    if comparable:
        try:
            min_value = min(comparable)
            max_value = max(comparable)
        except TypeError:
            min_value = max_value = None
        if (
            isinstance(min_value, (int, float))
            and not isinstance(min_value, bool)
            and isinstance(max_value, (int, float))
            and max_value > min_value
        ):
            histogram = _build_histogram(non_null, min_value, max_value, buckets)
    return ColumnStatistics(
        row_count=row_count,
        null_count=null_count,
        distinct_count=distinct,
        min_value=min_value,
        max_value=max_value,
        histogram=histogram,
    )


def _build_histogram(
    values: Sequence[float], low: float, high: float, buckets: int
) -> tuple[HistogramBucket, ...]:
    width = (high - low) / buckets
    if width <= 0 or not math.isfinite(width):
        # high > low can still yield a zero width (subnormal range
        # underflowing the division) or an infinite one (range overflow);
        # a single bucket spanning the whole range is the honest summary.
        return (HistogramBucket(low, high, len(values)),)
    counts = [0] * buckets
    for value in values:
        if value != value:  # NaN lies in no bucket
            continue
        index = int((value - low) / width)
        if index >= buckets:  # max value lands in the last (closed) bucket
            index = buckets - 1
        counts[index] += 1
    return tuple(
        HistogramBucket(low + i * width, low + (i + 1) * width, counts[i])
        for i in range(buckets)
    )


@dataclass
class TableStatistics:
    """Statistics for a whole relation, per column plus the row count."""

    row_count: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics | None:
        return self.columns.get(name)

    def distinct_count(self, column: str) -> int:
        stats = self.columns.get(column)
        if stats is None:
            return max(1, int(math.sqrt(self.row_count)) or 1)
        return max(1, stats.distinct_count)


def compute_table_statistics(
    table: Table, buckets: int = DEFAULT_HISTOGRAM_BUCKETS
) -> TableStatistics:
    """Scan a table once per column and summarize it."""
    columns: dict[str, ColumnStatistics] = {}
    for position, column in enumerate(table.schema):
        values = [row[position] for row in table.rows]
        stats = compute_column_statistics(values, buckets, column.dtype)
        columns[column.name] = stats
        columns[column.qualified_name] = stats
    return TableStatistics(row_count=len(table.rows), columns=columns)


def count_distinct_rows(rows: Sequence[Row], positions: Sequence[int]) -> int:
    """Number of distinct combinations of the given column positions.

    This is the paper's "#groups" quantity: the number of distinct values in
    the grouping columns.
    """
    return len({grouping_key(tuple(row[i] for i in positions)) for row in rows})
