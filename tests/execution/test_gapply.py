"""Unit tests for the physical GApply operator.

The key test checks PGApply against the paper's *formal definition*:

    U_{c in distinct(pi_C(R))} ({c} x PGQ(sigma_{C=c} R))
"""

import random

import pytest

from repro.algebra.expressions import avg, col, count_star, gt, lit
from repro.execution.aggregates import PHashAggregate
from repro.execution.base import PMaterialized, run_plan
from repro.execution.basic import PFilter, PProject
from repro.execution.context import ExecutionContext
from repro.execution.gapply import PGApply
from repro.execution.scans import PGroupScan
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType, grouping_key
from repro.workloads.queries import query_by_name

SCHEMA = Schema(
    (
        Column("g", DataType.INTEGER, "t"),
        Column("h", DataType.STRING, "t"),
        Column("v", DataType.FLOAT, "t"),
    )
)
ROWS = [
    (1, "x", 10.0),
    (1, "y", 20.0),
    (2, "x", 5.0),
    (2, "x", 5.0),  # duplicate row: multiset semantics
    (None, "z", 1.0),
]


def random_rows(seed: int, count: int = 120) -> list[tuple]:
    """Random rows with NULL keys, exact duplicates and skewed group sizes."""
    rng = random.Random(seed)
    rows = [
        (
            rng.choice([None, 1, 1, 2, 3, 3, 3, 4, 5, 6, 7, 8]),
            rng.choice(["x", "y", "z"]),
            round(rng.uniform(0.0, 100.0), 2),
        )
        for _ in range(count)
    ]
    rows.extend(rows[:5])
    rng.shuffle(rows)
    return rows


#: The partition phase's two implementations, by spill threshold: the
#: in-memory hash, and the external sort a one-cell threshold forces.
PARTITIONS = pytest.mark.parametrize(
    "spill_threshold", [None, 1], ids=["hash", "sort"]
)


def source(rows=None):
    return PMaterialized(SCHEMA, ROWS if rows is None else rows)


def count_pgq():
    return PHashAggregate(PGroupScan("grp", SCHEMA), (), (count_star("n"),))


def formal_definition(rows, key_positions, pgq_fn):
    """The paper's formal semantics, computed naively."""
    seen = []
    for row in rows:
        key = tuple(row[i] for i in key_positions)
        if grouping_key(key) not in [grouping_key(k) for k in seen]:
            seen.append(key)
    result = []
    for key in seen:
        group = [
            row
            for row in rows
            if grouping_key(tuple(row[i] for i in key_positions))
            == grouping_key(key)
        ]
        for out in pgq_fn(group):
            result.append(key + out)
    return result


class TestSemantics:
    @PARTITIONS
    @pytest.mark.parametrize(
        "rows, keys",
        [
            (ROWS, ["g"]),
            (random_rows(1), ["g"]),
            (random_rows(2), ["g", "h"]),
            (random_rows(3), ["g", "h"]),
        ],
        ids=["handcrafted", "random-1", "random-2-multikey", "random-3-multikey"],
    )
    def test_count_per_group_matches_formal_definition(
        self, spill_threshold, rows, keys
    ):
        plan = PGApply(
            source(rows), keys, count_pgq(), "grp", spill_threshold=spill_threshold
        )
        expected = formal_definition(
            rows, list(range(len(keys))), lambda grp: [(len(grp),)]
        )
        assert sorted(run_plan(plan), key=repr) == sorted(expected, key=repr)

    def test_null_keys_form_one_group(self):
        plan = PGApply(source(), ["g"], count_pgq(), "grp")
        rows = {grouping_key((row[0],)): row[1] for row in run_plan(plan)}
        assert rows[grouping_key((None,))] == 1

    def test_multi_column_grouping(self):
        plan = PGApply(source(), ["g", "h"], count_pgq(), "grp")
        out = {row[:2]: row[2] for row in run_plan(plan)}
        assert out[(2, "x")] == 2
        assert out[(1, "x")] == 1

    def test_empty_input_produces_no_groups(self):
        plan = PGApply(source([]), ["g"], count_pgq(), "grp")
        assert run_plan(plan) == []

    def test_multiset_duplicates_preserved_in_group(self):
        pgq = PProject(PGroupScan("grp", SCHEMA), ((col("v"), "v"),))
        plan = PGApply(source(), ["g"], pgq, "grp")
        values = [row for row in run_plan(plan) if row[0] == 2]
        assert values == [(2, 5.0), (2, 5.0)]

    def test_filtering_pgq(self):
        pgq = PHashAggregate(
            PFilter(PGroupScan("grp", SCHEMA), gt(col("v"), lit(7.0))),
            (),
            (count_star("n"),),
        )
        plan = PGApply(source(), ["g"], pgq, "grp")
        out = {grouping_key((row[0],)): row[1] for row in run_plan(plan)}
        assert out[grouping_key((1,))] == 2
        assert out[grouping_key((2,))] == 0  # aggregate over empty subset

    def test_partition_emits_keys_in_order(self):
        plan = PGApply(source(), ["g"], count_pgq(), "grp")
        keys = [row[0] for row in run_plan(plan)]
        assert keys == [None, 1, 2]  # NULLS FIRST, then ascending

    def test_paper_query_emits_clustered_keys(self, tpch_db):
        """The same on a paper query through the compiled plan: Q1's output
        arrives ordered by supplier key, so the tagger needs no partition
        operator above GApply."""
        result = tpch_db.sql(query_by_name("Q1").gapply_sql)
        keys = [row[0] for row in result.rows]
        assert len(set(keys)) > 1
        assert keys == sorted(keys)


class TestMechanics:
    def test_counters(self):
        ctx = ExecutionContext()
        run_plan(PGApply(source(), ["g"], count_pgq(), "grp"), ctx)
        assert ctx.counters.groups_partitioned == 3
        assert ctx.counters.group_executions == 3
        assert ctx.counters.peak_partition_rows == 5
        assert ctx.counters.buffered_cells == 5 * 3

    @PARTITIONS
    def test_empty_groups_are_counted(self, spill_threshold):
        """A group whose per-group plan emits nothing still forms (and is
        executed); the metrics record says how many came up empty."""
        from repro.observe.metrics import MetricsRegistry

        pgq = PFilter(PGroupScan("grp", SCHEMA), gt(col("v"), lit(7.0)))
        plan = PGApply(source(), ["g"], pgq, "grp", spill_threshold=spill_threshold)
        registry = MetricsRegistry()
        registry.register_plan(plan)
        ctx = ExecutionContext(metrics=registry)
        assert {row[0] for row in run_plan(plan, ctx)} == {1}
        record = registry.record_for(plan)
        assert record.groups_formed == 3
        assert record.empty_groups_skipped == 2  # groups 2 and NULL
        assert ctx.counters.group_executions == 3

    def test_group_rows_are_copies(self):
        """Partition buffering materializes rows (width-proportional copy)."""
        plan = PGApply(source(), ["g"], count_pgq(), "grp")
        ctx = ExecutionContext()
        partitions = list(plan.partition(iter(ROWS), ctx))
        all_buffered = [row for _, rows in partitions for row in rows]
        for buffered in all_buffered:
            assert buffered in ROWS
            assert not any(buffered is original for original in ROWS)

    def test_output_schema_keys_then_pgq(self):
        plan = PGApply(source(), ["g"], count_pgq(), "grp")
        assert plan.schema.qualified_names() == ["t.g", "n"]

    def test_reexecutable(self):
        plan = PGApply(source(), ["g"], count_pgq(), "grp")
        assert run_plan(plan) == run_plan(plan)

    def test_nested_gapply_with_distinct_variables(self):
        # inner GApply groups each outer group by h
        inner_pgq = PHashAggregate(
            PGroupScan("inner_grp", SCHEMA), (), (count_star("m"),)
        )
        inner = PGApply(
            PGroupScan("outer_grp", SCHEMA), ["h"], inner_pgq, "inner_grp"
        )
        plan = PGApply(source(), ["g"], inner, "outer_grp")
        rows = run_plan(plan)
        out = {(row[0], row[1]): row[2] for row in rows}
        assert out[(2, "x")] == 2
        assert out[(1, "y")] == 1

    def test_avg_pgq(self):
        pgq = PHashAggregate(PGroupScan("grp", SCHEMA), (), (avg(col("v"), "m"),))
        plan = PGApply(source(), ["g"], pgq, "grp")
        out = {grouping_key((row[0],)): row[1] for row in run_plan(plan)}
        assert out[grouping_key((1,))] == 15.0
