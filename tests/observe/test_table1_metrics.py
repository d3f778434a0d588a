"""Counter-based Table-1 tests: each rule provably reduces work.

The paper's Table 1 quantifies each rewrite rule by wall-clock benefit;
on a 1-CPU CI container wall-clock is noise, so these tests assert the
*mechanism* instead, through per-operator metrics: with the rule enabled
the chosen plan strictly reduces the rows entering GApply's partition
phase (or the cells buffered by it, for the width-oriented rules) versus
the same query planned with the rule disabled — and returns identical
rows.
"""

from __future__ import annotations

import pytest

from repro.optimizer.planner import PlannerOptions
from repro.workloads.rule_queries import sweep_by_rule

from tests.conftest import rows_sorted


def run_with_metrics(db, sql, disabled=()):
    return db.sql(
        sql,
        planner_options=PlannerOptions(disabled_rules=tuple(disabled)),
        collect_metrics=True,
    )


def partition_rows(result) -> int:
    """Rows that entered any GApply partition phase in this execution."""
    return result.metrics.total("partition_rows")


def buffered_cells(result) -> int:
    return result.counters.buffered_cells


#: rule name -> (sweep parameter, metric that must strictly shrink).
#: partition_rows for the rules that keep rows out of (or eliminate) the
#: partition phase; buffered_cells for the width/placement rules whose
#: benefit is narrower or later buffering, not fewer partitioned rows.
RULE_CASES = {
    "selection_before_gapply": (902.0, partition_rows),
    "projection_before_gapply": (1, buffered_cells),
    "gapply_to_groupby": (1, partition_rows),
    "exists_group_selection": (2050.0, partition_rows),
    "aggregate_group_selection": (1700.0, partition_rows),
    "invariant_grouping": (0.0, buffered_cells),
}


@pytest.mark.parametrize("rule_name", sorted(RULE_CASES))
def test_rule_strictly_reduces_work_counters(tpch_db, rule_name):
    parameter, metric = RULE_CASES[rule_name]
    sql = sweep_by_rule(rule_name).make_sql(parameter)
    with_rule = run_with_metrics(tpch_db, sql)
    without_rule = run_with_metrics(tpch_db, sql, disabled=[rule_name])
    # Same answer either way — the rule is an optimization, not a rewrite
    # of semantics.
    assert rows_sorted(with_rule.rows) == rows_sorted(without_rule.rows)
    assert metric(with_rule) < metric(without_rule), (
        f"{rule_name} did not reduce {metric.__name__}: "
        f"{metric(with_rule)} vs {metric(without_rule)} without the rule"
    )


def test_gapply_to_groupby_eliminates_the_operator(tpch_db):
    sql = sweep_by_rule("gapply_to_groupby").make_sql(1)
    with_rule = run_with_metrics(tpch_db, sql)
    without_rule = run_with_metrics(tpch_db, sql, disabled=["gapply_to_groupby"])
    assert with_rule.metrics.by_label("GApply") == []
    assert without_rule.metrics.by_label("GApply") != []
    assert without_rule.metrics.total("groups_formed") > 0


def test_selection_rule_reduces_groups_payload_not_group_count(tpch_db):
    """Covering-range pushdown shrinks groups, not the set of groups."""
    sql = sweep_by_rule("selection_before_gapply").make_sql(902.0)
    with_rule = run_with_metrics(tpch_db, sql)
    without_rule = run_with_metrics(
        tpch_db, sql, disabled=["selection_before_gapply"]
    )
    assert (
        with_rule.metrics.total("groups_formed")
        == without_rule.metrics.total("groups_formed")
    )
    assert partition_rows(with_rule) < partition_rows(without_rule)
