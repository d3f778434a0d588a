"""Property-based tests: index access paths agree with naive scans.

Indexes are an optimization, never a semantics change: for random tables,
every lookup/range result must equal the corresponding full-scan filter,
and plans lowered with and without index support must produce identical
results.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import col, eq, lit
from repro.algebra.operators import Join, Select, TableScan
from repro.api import Database
from repro.execution.base import run_plan
from repro.optimizer.planner import PlannerOptions, plan_physical
from repro.storage import Catalog, DataType, table_from_rows
from repro.storage.types import grouping_key

values = st.one_of(st.none(), st.integers(min_value=-5, max_value=5))
rows = st.lists(st.tuples(values, values), max_size=40)


def build_table(data):
    table = table_from_rows(
        "t", [("k", DataType.INTEGER), ("v", DataType.INTEGER)], data
    )
    table.create_index(["k"])
    table.create_index(["v"])
    return table


class TestIndexAgainstScan:
    @given(data=rows, probe=st.integers(min_value=-6, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_lookup_equals_filter(self, data, probe):
        table = build_table(data)
        index = table.index_on(["k"])
        looked_up = sorted(index.lookup((probe,)), key=repr)
        scanned = sorted(
            (row for row in data if row[0] == probe), key=repr
        )
        assert looked_up == scanned

    @given(
        data=rows,
        low=st.integers(min_value=-6, max_value=6),
        high=st.integers(min_value=-6, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_range_equals_filter(self, data, low, high):
        table = build_table(data)
        index = table.index_on(["v"])
        ranged = sorted(index.range_scan(low, high), key=repr)
        scanned = sorted(
            (
                row
                for row in data
                if row[1] is not None and low <= row[1] <= high
            ),
            key=repr,
        )
        assert ranged == scanned

    @given(data=rows, probe=st.integers(min_value=-6, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_planned_seek_equals_planned_filter(self, data, probe):
        catalog = Catalog()
        catalog.register(build_table(data))
        node = Select(
            TableScan.of(catalog.table("t")), eq(col("k"), lit(probe))
        )
        with_index = run_plan(
            plan_physical(node, catalog, PlannerOptions(use_indexes=True))
        )
        without = run_plan(
            plan_physical(node, catalog, PlannerOptions(use_indexes=False))
        )
        assert sorted(with_index, key=repr) == sorted(without, key=repr)

    @given(data=rows, other=rows)
    @settings(max_examples=30, deadline=None)
    def test_index_join_equals_hash_join(self, data, other):
        catalog = Catalog()
        catalog.register(build_table(data))
        probe_table = table_from_rows(
            "probe", [("pk", DataType.INTEGER)], [(row[0],) for row in other[:5]]
        )
        catalog.register(probe_table)
        node = Join(
            TableScan.of(probe_table),
            TableScan.of(catalog.table("t")),
            eq(col("pk"), col("k")),
        )
        with_index = run_plan(
            plan_physical(node, catalog, PlannerOptions(use_indexes=True))
        )
        without = run_plan(
            plan_physical(node, catalog, PlannerOptions(use_indexes=False))
        )
        assert sorted(with_index, key=repr) == sorted(without, key=repr)

    @given(data=rows)
    @settings(max_examples=30, deadline=None)
    def test_index_survives_mutation(self, data):
        table = build_table(data)
        index = table.index_on(["k"])
        index.lookup((0,))  # force a build
        table.insert((0, 99))
        expected = [row for row in table.rows if grouping_key((row[0],)) == grouping_key((0,))]
        assert sorted(index.lookup((0,)), key=repr) == sorted(expected, key=repr)


NAN = float("nan")
OTHER_NAN = float("inf") - float("inf")  # a second NaN object
FLOATS = st.sampled_from(
    [NAN, OTHER_NAN, float("inf"), -float("inf"), -0.0, 0.0, 0.5, 1.0, 2.0, None]
)
PROBES = ["-1.0", "-0.0", "0.0", "0.5", "1.0", "1.5", "2.0"]
PREDICATES = [
    "k = {a}",
    "k < {a}",
    "k <= {a}",
    "k > {a}",
    "k >= {a}",
    "k between {a} and {b}",
    "k >= {a} and k <= {b}",
]


class TestFloatIndexAgainstScan:
    """NaN (two objects), ±inf, -0.0 and NULL in an indexed FLOAT column:
    every comparison returns the rows a scan returns, NaN above +inf."""

    @pytest.mark.parametrize("predicate", PREDICATES)
    @given(
        keys=st.lists(FLOATS, max_size=30),
        a=st.sampled_from(PROBES),
        b=st.sampled_from(PROBES),
    )
    @settings(max_examples=40, deadline=None)
    def test_comparison_with_index_equals_scan(self, predicate, keys, a, b):
        rows = [(k, v) for v, k in enumerate(keys)]
        scan = Database()
        scan.create_table("t", [("k", DataType.FLOAT), ("v", DataType.INTEGER)], rows)
        indexed = Database()
        indexed.create_table(
            "t", [("k", DataType.FLOAT), ("v", DataType.INTEGER)], rows
        )
        indexed.create_index("t", ["k"])
        sql = f"select v from t where {predicate.format(a=a, b=b)}"
        assert sorted(indexed.sql(sql).rows) == sorted(scan.sql(sql).rows)

    def test_ranges_reach_the_index(self):
        rows = [(k, v) for v, k in enumerate([1.0, NAN, 2.0, OTHER_NAN, 0.5])]
        db = Database()
        db.create_table("t", [("k", DataType.FLOAT), ("v", DataType.INTEGER)], rows)
        db.create_index("t", ["k"])
        plan = db.sql("select v from t where k > 1.5", explain="plan")
        assert "IndexSeek" in str(plan)
        assert sorted(db.sql("select v from t where k > 1.5").rows) == [
            (1,), (2,), (3,)
        ]
        assert sorted(
            db.sql("select v from t where k >= 1.0 and k <= 2.0").rows
        ) == [(0,), (2,)]
