"""One key domain: NaN gets one answer from every strategy.

PostgreSQL's rule (DESIGN.md §3): all NaNs are equal and NaN sorts above
+inf. A FLOAT column holding two distinct NaN objects, ±inf, -0.0 and
NULL must give the same answer to ORDER BY, DISTINCT, GROUP BY,
COUNT(DISTINCT), MIN/MAX, ``k = k``, a hash join and GApply, whether
it runs in memory (GApply hashes) or spills (GApply sorts externally),
and on both engines (``Database.sql`` compiled, ``reference_rows`` the
row iterators).
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.api import Database
from repro.execution.context import ExecutionContext
from repro.execution.governor import Budget, Governor
from repro.fuzz.oracle import reference_rows
from repro.storage import DataType
from repro.storage.spill import live_spill_files
from tests.conftest import ALL_RULES_OFF

NAN = float("nan")
OTHER_NAN = float("inf") - float("inf")  # a second NaN object
INF = float("inf")
KEYS = [
    1.0, NAN, 1.0, OTHER_NAN, 2.0, 1.0, NAN, 2.0, 0.5,
    INF, -INF, -0.0, None, 0.0, OTHER_NAN,
]
SPILL = 6  # cells: three two-column rows per run


def rank(k):
    """The rule, stated without the engine: NULL first, NaN above +inf."""
    if k is None:
        return (0, 0.0)
    if k != k:
        return (2, 0.0)
    return (1, k)


def groups(pairs):
    """{rank(k): (count, sum of v)} over ``(k, v)`` pairs."""
    out: dict = {}
    for k, v in pairs:
        count, total = out.get(rank(k), (0, 0))
        out[rank(k)] = (count + 1, total + v)
    return out


ROWS = [(k, v) for v, k in enumerate(KEYS)]
EXPECTED_GROUPS = groups(ROWS)


@pytest.fixture(scope="module")
def db() -> Database:
    assert NAN is not OTHER_NAN
    db = Database()
    db.create_table("t", [("k", DataType.FLOAT), ("v", DataType.INTEGER)], ROWS)
    db.create_table("u", [("k2", DataType.FLOAT)], [(NAN,), (1.0,)])
    # One group with NaN first, one with NaN last.
    db.create_table(
        "w",
        [("g", DataType.INTEGER), ("k", DataType.FLOAT)],
        [(1, NAN), (1, 1.0), (1, 2.0), (2, 1.0), (2, 2.0), (2, NAN)],
    )
    return db


CONFIGS = [
    pytest.param((spill, engine), id=f"{partition}-{spill}-{engine}")
    for partition, spill in (("hash", "memory"), ("sort", "spilled"))
    for engine in ("compiled", "row-iterators")
]


@pytest.fixture(params=CONFIGS)
def run(request, db):
    """``sql`` -> rows under one configuration."""
    spill, engine = request.param
    options = ALL_RULES_OFF
    budget = None
    if spill == "spilled":
        options = replace(options, gapply_spill_threshold=SPILL)
        budget = SPILL

    def execute(sql: str) -> list[tuple]:
        if engine == "compiled":
            rows = db.sql(sql, planner_options=options, memory_budget=budget).rows
        else:
            ctx = ExecutionContext(
                governor=None if budget is None else Governor(Budget(memory_cells=budget))
            )
            rows = list(reference_rows(db, sql, ctx, planner_options=options))
        assert live_spill_files() == frozenset()
        return rows

    return execute


class TestOneAnswerPerStrategy:
    def test_order_by_ascending(self, run):
        got = [v for (v,) in run("select v from t order by k")]
        assert got == [v for _, v in sorted(ROWS, key=lambda row: rank(row[0]))]

    def test_order_by_descending(self, run):
        got = [v for (v,) in run("select v from t order by k desc")]
        expected = sorted(ROWS, key=lambda row: rank(row[0]), reverse=True)
        assert got == [v for _, v in expected]

    def test_distinct(self, run):
        got = [rank(k) for (k,) in run("select distinct k from t")]
        assert sorted(got) == sorted(EXPECTED_GROUPS)

    def test_group_by(self, run):
        rows = run("select k, count(*), sum(v) from t group by k")
        assert len(rows) == len(EXPECTED_GROUPS)
        assert {rank(k): (n, s) for k, n, s in rows} == EXPECTED_GROUPS

    def test_count_distinct(self, run):
        assert run("select count(distinct k) from t") == [
            (len(EXPECTED_GROUPS) - 1,)  # NULL is not counted
        ]

    def test_min_max(self, run):
        ((low, high),) = run("select min(k), max(k) from t")
        assert low == -INF
        assert math.isnan(high)

    @pytest.mark.parametrize(
        "sql",
        [
            "select g, min(k), max(k) from w group by g",
            "select gapply(select min(k), max(k) from p) as (lo, hi) "
            "from w group by g : p",
        ],
    )
    def test_min_max_ignore_row_order(self, run, sql):
        rows = sorted(run(sql))
        assert [g for g, _, _ in rows] == [1, 2]
        for _, low, high in rows:
            assert low == 1.0 and math.isnan(high)

    def test_nan_equals_itself_in_where(self, run):
        got = sorted(v for (v,) in run("select v from t where k = k"))
        assert got == [v for k, v in ROWS if k is not None]

    def test_comparisons_place_nan_above_infinity(self, run):
        above = sorted(v for (v,) in run("select v from t where k > 1.5"))
        assert above == [v for k, v in ROWS if k is not None and rank(k) > rank(1.5)]
        unequal = sorted(v for (v,) in run("select v from t where k <> 1.0"))
        assert unequal == [v for k, v in ROWS if k is not None and rank(k) != rank(1.0)]

    def test_hash_join_agrees_with_equality(self, run):
        got = sorted(v for v, _ in run("select v, k2 from t, u where k = k2"))
        expected = sorted(
            v for k, v in ROWS for (k2,) in [(NAN,), (1.0,)]
            if k is not None and rank(k) == rank(k2)
        )
        assert got == expected

    def test_gapply(self, run):
        rows = run(
            "select gapply(select count(*), sum(v) from g) as (n, s) "
            "from t group by k : g"
        )
        assert len(rows) == len(EXPECTED_GROUPS)
        assert {rank(k): (n, s) for k, n, s in rows} == EXPECTED_GROUPS
        # Key order in memory and spilled.
        assert [rank(k) for k, _, _ in rows] == sorted(EXPECTED_GROUPS)
