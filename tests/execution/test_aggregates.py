"""Unit tests for aggregation operators."""

from repro.algebra.expressions import avg, col, count, count_star, max_, min_, sum_
from repro.execution.aggregates import PHashAggregate
from repro.execution.base import PMaterialized, run_plan
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

SCHEMA = Schema(
    (Column("g", DataType.INTEGER), Column("v", DataType.FLOAT))
)
ROWS = [(1, 10.0), (1, 20.0), (2, 5.0), (2, None), (None, 1.0)]


def source(rows=None):
    return PMaterialized(SCHEMA, ROWS if rows is None else rows)


class TestHashAggregate:
    def test_group_by_key(self):
        plan = PHashAggregate(source(), ("g",), (count_star("n"), avg(col("v"), "m")))
        rows = dict((row[0], row[1:]) for row in run_plan(plan))
        assert rows[1] == (2, 15.0)
        assert rows[2] == (2, 5.0)  # avg ignores the NULL

    def test_nulls_form_their_own_group(self):
        plan = PHashAggregate(source(), ("g",), (count_star("n"),))
        rows = {row[0]: row[1] for row in run_plan(plan)}
        assert rows[None] == 1

    def test_scalar_aggregate_on_empty_input(self):
        plan = PHashAggregate(source([]), (), (count_star("n"), sum_(col("v"), "s")))
        assert run_plan(plan) == [(0, None)]

    def test_keyed_aggregate_on_empty_input(self):
        plan = PHashAggregate(source([]), ("g",), (count_star("n"),))
        assert run_plan(plan) == []

    def test_min_max(self):
        plan = PHashAggregate(source(), (), (min_(col("v"), "lo"), max_(col("v"), "hi")))
        assert run_plan(plan) == [(1.0, 20.0)]

    def test_count_distinct(self):
        rows = [(1, 5.0), (1, 5.0), (1, 7.0)]
        plan = PHashAggregate(
            source(rows), ("g",), (count(col("v"), "n", distinct=True),)
        )
        assert run_plan(plan) == [(1, 2)]

    def test_output_schema(self):
        plan = PHashAggregate(source(), ("g",), (avg(col("v"), "m"),))
        assert plan.schema.names() == ["g", "m"]
        assert plan.schema[1].dtype is DataType.FLOAT

