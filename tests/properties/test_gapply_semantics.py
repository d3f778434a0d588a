"""Property-based test: PGApply implements the paper's formal definition.

    R1 GA_C R2  =  U_{c in distinct(pi_C(R1))} ({c} x R2(sigma_{C=c} R1))

for random input relations, random grouping columns, and a family of
per-group queries (count, avg, filter+project, whole group), under both
partition-phase implementations: the in-memory hash and the external sort
a spill threshold forces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.expressions import avg, col, count_star, gt, lit
from repro.execution.aggregates import PHashAggregate
from repro.execution.base import PMaterialized, run_plan
from repro.execution.basic import PFilter, PProject
from repro.execution.gapply import PGApply
from repro.execution.scans import PGroupScan
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType, grouping_key

SCHEMA = Schema(
    (
        Column("a", DataType.INTEGER, "t"),
        Column("b", DataType.INTEGER, "t"),
        Column("v", DataType.FLOAT, "t"),
    )
)

values = st.one_of(st.none(), st.integers(min_value=-3, max_value=3))
floats = st.one_of(
    st.none(), st.floats(min_value=-10, max_value=10, allow_nan=False)
)
rows = st.lists(st.tuples(values, values, floats), max_size=30)
keys = st.sampled_from([["a"], ["b"], ["a", "b"]])


def naive_gapply(data, key_columns, pgq_fn):
    positions = [SCHEMA.index_of(c) for c in key_columns]
    seen: list[tuple] = []
    for row in data:
        key = tuple(row[i] for i in positions)
        if grouping_key(key) not in [grouping_key(k) for k in seen]:
            seen.append(key)
    out = []
    for key in seen:
        group = [
            row
            for row in data
            if grouping_key(tuple(row[i] for i in positions)) == grouping_key(key)
        ]
        for result in pgq_fn(group):
            out.append(key + result)
    return sorted(out, key=repr)


def gapply_plan(data, key_columns, pgq_plan, spill_threshold=None):
    return PGApply(
        PMaterialized(SCHEMA, data),
        key_columns,
        pgq_plan,
        "g",
        spill_threshold=spill_threshold,
    )


def run_gapply(data, key_columns, pgq_plan, spill_threshold=None):
    plan = gapply_plan(data, key_columns, pgq_plan, spill_threshold)
    return sorted(run_plan(plan), key=repr)


class TestFormalDefinition:
    @given(data=rows, key_columns=keys)
    @settings(max_examples=60, deadline=None)
    def test_count_star(self, data, key_columns):
        pgq = PHashAggregate(PGroupScan("g", SCHEMA), (), (count_star("n"),))
        expected = naive_gapply(data, key_columns, lambda grp: [(len(grp),)])
        assert run_gapply(data, key_columns, pgq) == expected
        assert run_gapply(data, key_columns, pgq, spill_threshold=1) == expected

    @given(data=rows, key_columns=keys)
    @settings(max_examples=60, deadline=None)
    def test_avg(self, data, key_columns):
        pgq = PHashAggregate(PGroupScan("g", SCHEMA), (), (avg(col("v"), "m"),))

        def naive_pgq(group):
            non_null = [row[2] for row in group if row[2] is not None]
            if not non_null:
                return [(None,)]
            return [(sum(non_null) / len(non_null),)]

        expected = naive_gapply(data, key_columns, naive_pgq)
        actual = run_gapply(data, key_columns, pgq)
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got[:-1] == want[:-1]
            if want[-1] is None:
                assert got[-1] is None
            else:
                assert abs(got[-1] - want[-1]) < 1e-9

    @given(data=rows, key_columns=keys)
    @settings(max_examples=60, deadline=None)
    def test_filter_project(self, data, key_columns):
        pgq = PProject(
            PFilter(PGroupScan("g", SCHEMA), gt(col("v"), lit(0.0))),
            ((col("v"), "v"),),
        )

        def naive_pgq(group):
            return [(row[2],) for row in group if row[2] is not None and row[2] > 0.0]

        expected = naive_gapply(data, key_columns, naive_pgq)
        assert run_gapply(data, key_columns, pgq) == expected

    @given(data=rows, key_columns=keys)
    @settings(max_examples=60, deadline=None)
    def test_whole_group_passthrough(self, data, key_columns):
        pgq = PGroupScan("g", SCHEMA)
        expected = naive_gapply(data, key_columns, lambda grp: list(grp))
        assert run_gapply(data, key_columns, pgq) == expected

    @given(data=rows, key_columns=keys, threshold=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_hash_and_sort_partitioning_agree(self, data, key_columns, threshold):
        # Both emit groups in key order and rows in arrival order, so the
        # outputs agree row for row, not only as multisets.
        pgq = PHashAggregate(
            PGroupScan("g", SCHEMA), ("b",), (count_star("n"),)
        )
        assert run_plan(gapply_plan(data, key_columns, pgq)) == run_plan(
            gapply_plan(data, key_columns, pgq, threshold)
        )
