"""Unit tests for the hash join: keyed and keyless (cross and theta),
semi/anti, build side."""

import pytest

from repro.algebra.expressions import And, col, eq, gt, lit
from repro.algebra.operators import JoinKind
from repro.api import Database
from repro.errors import PlanError
from repro.execution.base import PMaterialized, run_plan
from repro.execution.context import ExecutionContext
from repro.execution.joins import PHashJoin
from repro.execution.vector.compiler import compile_plan
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

LEFT = Schema((Column("lk", DataType.INTEGER, "l"), Column("lv", DataType.STRING, "l")))
RIGHT = Schema((Column("rk", DataType.INTEGER, "r"), Column("rv", DataType.STRING, "r")))

LEFT_ROWS = [(1, "a"), (2, "b"), (2, "B"), (None, "n"), (4, "d")]
RIGHT_ROWS = [(1, "x"), (2, "y"), (3, "z"), (None, "nn")]


def left():
    return PMaterialized(LEFT, LEFT_ROWS)


def right():
    return PMaterialized(RIGHT, RIGHT_ROWS)


def hash_join(**kwargs):
    return PHashJoin(left(), right(), ["lk"], ["rk"], **kwargs)


def keyless(residual=None, **kwargs):
    return PHashJoin(left(), right(), [], [], residual, **kwargs)


def _everywhere(plan) -> list:
    """``plan``'s rows on the row iterators, after checking that the
    compiled plan returns the same rows and counters at every batch size."""
    ctx = ExecutionContext()
    rows = run_plan(plan, ctx)
    for batch_size in (1, 3, 128):
        compiled = ExecutionContext()
        assert compile_plan(plan, batch_size).run(compiled) == rows, batch_size
        assert compiled.counters.snapshot() == ctx.counters.snapshot(), batch_size
    return rows


class TestHashJoin:
    def test_inner_matches(self):
        rows = run_plan(hash_join())
        assert sorted(rows) == [(1, "a", 1, "x"), (2, "B", 2, "y"), (2, "b", 2, "y")]

    def test_null_keys_never_match(self):
        rows = run_plan(hash_join())
        assert all(row[0] is not None for row in rows)

    def test_residual_predicate(self):
        residual = eq(col("lv"), lit("b"))
        rows = run_plan(hash_join(residual=residual))
        assert rows == [(2, "b", 2, "y")]

    def test_build_left_same_results(self):
        normal = sorted(run_plan(hash_join()))
        swapped = sorted(run_plan(hash_join(build_left=True)))
        assert normal == swapped

    def test_build_left_counters(self):
        ctx = ExecutionContext()
        run_plan(hash_join(build_left=True), ctx)
        # build on left: 4 non-null left rows inserted
        assert ctx.counters.hash_inserts == 4

    def test_semi(self):
        rows = run_plan(hash_join(kind=JoinKind.SEMI))
        assert sorted(rows) == [(1, "a"), (2, "B"), (2, "b")]

    def test_anti(self):
        rows = run_plan(hash_join(kind=JoinKind.ANTI))
        assert sorted(rows, key=repr) == [(4, "d"), (None, "n")]

    def test_build_left_semi_rejected(self):
        with pytest.raises(PlanError):
            hash_join(kind=JoinKind.SEMI, build_left=True)

    def test_unequal_key_lists_rejected(self):
        with pytest.raises(PlanError):
            PHashJoin(left(), right(), ["lk"], [])

    def test_schema_concat(self):
        assert hash_join().schema.qualified_names() == [
            "l.lk",
            "l.lv",
            "r.rk",
            "r.rv",
        ]


class TestNestedLoopJoin:
    """The block nested-loop join: a hash join on the empty key, whose one
    bucket is the whole build side and whose condition is the residual.
    Each case runs on the row iterators and compiled at batch sizes 1, 3
    and 128, with the same rows and counters everywhere."""

    def test_cross_join(self):
        rows = _everywhere(keyless())
        assert len(rows) == len(LEFT_ROWS) * len(RIGHT_ROWS)

    def test_theta_join(self):
        rows = _everywhere(keyless(gt(col("lk"), col("rk"))))
        assert sorted(rows) == [
            (2, "B", 1, "x"),
            (2, "b", 1, "x"),
            (4, "d", 1, "x"),
            (4, "d", 2, "y"),
            (4, "d", 3, "z"),
        ]

    def test_equi_matches_hash_join(self):
        rows = _everywhere(keyless(eq(col("lk"), col("rk"))))
        assert sorted(rows) == sorted(run_plan(hash_join()))

    def test_semi(self):
        # The NULL ``lk`` (and the NULL ``rk``) make the residual unknown,
        # never true.
        plan = keyless(gt(col("lk"), col("rk")), kind=JoinKind.SEMI)
        assert sorted(_everywhere(plan)) == [(2, "B"), (2, "b"), (4, "d")]

    def test_anti(self):
        plan = keyless(gt(col("lk"), col("rk")), kind=JoinKind.ANTI)
        assert sorted(_everywhere(plan), key=repr) == [(1, "a"), (None, "n")]

    def test_compound_predicate(self):
        predicate = And(eq(col("lk"), col("rk")), eq(col("rv"), lit("y")))
        rows = _everywhere(keyless(predicate))
        assert sorted(rows) == [(2, "B", 2, "y"), (2, "b", 2, "y")]

    def test_build_left(self):
        theta = gt(col("lk"), col("rk"))
        swapped = _everywhere(keyless(theta, build_left=True))
        assert sorted(swapped) == sorted(_everywhere(keyless(theta)))
        ctx = ExecutionContext()
        run_plan(keyless(theta, build_left=True), ctx)
        assert ctx.counters.hash_inserts == len(LEFT_ROWS)

    def test_label_has_no_dangling_conjunction(self):
        assert keyless().label() == "HashJoin:inner[]"
        assert keyless(gt(col("lk"), col("rk"))).label() == (
            "HashJoin:inner[(lk > rk)]"
        )

    def test_unsupported_kind(self):
        with pytest.raises(PlanError):
            keyless(kind=JoinKind.LEFT_OUTER)
        with pytest.raises(PlanError):
            keyless(kind=JoinKind.CROSS)

    def test_counts_its_build_side(self):
        db = Database()
        db.create_table("a", [("x", DataType.INTEGER)], [(i,) for i in range(20)])
        db.create_table(
            "b", [("y", DataType.INTEGER), ("z", DataType.INTEGER)],
            [(i, i) for i in range(30)],
        )
        result = db.sql("select a.x, b.y from a, b where a.x < b.y")
        assert len(result.rows) == sum(30 - x - 1 for x in range(20))
        # The smaller input, 20 rows of one column, is the build side.
        assert result.counters.hash_inserts == 20
        assert result.counters.buffered_cells == 20

