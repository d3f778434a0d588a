"""Figure 8: Q1-Q4 with and without GApply.

Each paper query is benchmarked in both formulations; the ratio of the
``baseline`` group's time to the ``gapply`` group's time for the same query
is the bar height in the paper's Figure 8. The paper reports ratios up to
~2x (SQL Server 2000, 5 GB TPC-H); see EXPERIMENTS.md for our measured
ratios and the substitution notes.

Run:  pytest benchmarks/bench_fig8_speedup.py --benchmark-only
      python -m repro.bench.fig8            # the summary table
      python benchmarks/bench_fig8_speedup.py --smoke --out fig8.json
"""

import pytest

from conftest import execute
from repro.workloads.queries import PAPER_QUERIES

QUERIES = {query.name: query for query in PAPER_QUERIES}


@pytest.mark.parametrize("name", list(QUERIES), ids=list(QUERIES))
def test_fig8_baseline(benchmark, prepared, name):
    """The classical sorted-outer-union / derived-table formulation."""
    plan = prepared(QUERIES[name].baseline_sql)
    rows = benchmark(execute, plan)
    assert rows > 0


@pytest.mark.parametrize("name", list(QUERIES), ids=list(QUERIES))
def test_fig8_gapply(benchmark, prepared, name):
    """The Section-3.1 gapply formulation."""
    plan = prepared(QUERIES[name].gapply_sql)
    rows = benchmark(execute, plan)
    assert rows > 0


@pytest.mark.parametrize(
    "name",
    [query.name for query in PAPER_QUERIES if query.naive_sql is not None],
)
def test_fig8_naive(benchmark, prepared, name):
    """The paper's 'semantically equivalent but different' formulations it
    reports as orders of magnitude slower (correlated per-row subqueries)."""
    plan = prepared(QUERIES[name].naive_sql)
    rows = benchmark(execute, plan)
    assert rows > 0


def _script_cases(scale: float, repetitions: int):
    """Every Figure-8 case (names are ``query/formulation``, the keys of
    ``benchmarks/baselines.json``, whose per-case ``work`` a tier-1 test
    asserts at smoke scale)."""
    from repro.bench.fig8 import run_figure8

    named = []
    for row in run_figure8(scale=scale, repetitions=repetitions):
        named.append((f"{row.query}/baseline", row.baseline))
        named.append((f"{row.query}/gapply_hash", row.gapply_hash))
        named.append((f"{row.query}/gapply_sort", row.gapply_sort))
    return named


if __name__ == "__main__":
    from smokebench import bench_main

    bench_main("fig8_speedup", _script_cases)
