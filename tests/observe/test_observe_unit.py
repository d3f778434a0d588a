"""Unit coverage for the observe layer: registry, tracer, EXPLAIN plumbing.

Includes the zero-allocation guard: with metrics collection off (the
default), query execution must never touch the metrics machinery — not
one ``OperatorMetrics`` allocation, not one ``drive`` wrapper. That keeps
the observability layer free for every caller who doesn't ask for it.
"""

from __future__ import annotations

import json

import pytest

from repro.observe import MetricsRegistry, OperatorMetrics, Tracer, join_path
from repro.sql.ast import AstExplain, AstQuery
from repro.sql.parser import parse_statement
from repro.sql.printer import print_statement


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


def test_join_path():
    assert join_path("", "0") == "0"
    assert join_path("1", "0") == "1.0"


def test_registry_register_plan_and_totals(parts_db):
    plan = parts_db.sql("select p_name from part where p_size > 1").physical_plan
    registry = MetricsRegistry()
    registry.register_plan(plan)
    assert registry.record_for(plan).path == ""
    child = plan.children()[0]
    assert registry.record_for(child).path == "0"
    registry.record_for(plan).rows_out += 3
    registry.record_for(child).rows_out += 5
    assert registry.total("rows_out") == 8


def test_registry_injectable_clock_times_each_next():
    ticks = iter(range(0, 1000, 10))
    registry = MetricsRegistry(clock=lambda: next(ticks))

    class FakeOp:
        est_rows = None

        def label(self):
            return "Fake"

        def children(self):
            return []

        def _execute(self, ctx):
            yield from [(1,), (2,)]

    op = FakeOp()
    registry.register_plan(op)

    class Ctx:
        tracer = None

    rows = list(registry.drive(op, Ctx()))
    assert rows == [(1,), (2,)]
    record = registry.record_for(op)
    assert record.rows_out == 2
    assert record.executions == 1
    # Three next() calls (two rows + StopIteration), 10ns each.
    assert record.elapsed_ns == 30


def test_snapshot_excludes_time_by_default():
    from repro.execution.base import PMaterialized
    from repro.storage.schema import Schema
    from repro.storage.types import DataType

    registry = MetricsRegistry()
    registry.register_plan(
        PMaterialized(Schema.of(("a", DataType.INTEGER)), [])
    )
    record = registry.records()[0]
    record.elapsed_ns = 123
    assert "elapsed_ns" not in registry.snapshot()[""]
    assert registry.snapshot(include_time=True)[""]["elapsed_ns"] == 123
    assert registry.to_json()["operators"][0]["op"] == "Materialized(0 rows)"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------


def test_tracer_nests_spans_and_caps():
    ticks = iter(range(0, 10_000, 5))
    tracer = Tracer(clock=lambda: next(ticks), max_spans=3)
    outer = tracer.begin("plan", "query")
    inner = tracer.begin("operator", "scan", table="part")
    tracer.end(inner)
    tracer.end(outer)
    tracer.begin("group", "g1")
    tracer.begin("group", "g2")  # over the cap: dropped
    spans = tracer.to_json()["spans"]
    assert [s["kind"] for s in spans] == ["plan", "operator", "group"]
    assert spans[1]["parent_id"] == spans[0]["span_id"]
    assert spans[1]["attrs"] == {"table": "part"}
    assert spans[1]["duration_ns"] == 5
    assert tracer.to_json()["dropped"] == 1


# ----------------------------------------------------------------------
# EXPLAIN statement parsing and printing
# ----------------------------------------------------------------------


def test_parse_statement_explain_variants():
    plain = parse_statement("select p_name from part")
    assert isinstance(plain, AstQuery)
    explain = parse_statement("explain select p_name from part")
    assert isinstance(explain, AstExplain) and not explain.analyze
    analyze = parse_statement("explain analyze select p_name from part")
    assert isinstance(analyze, AstExplain) and analyze.analyze


def test_print_statement_round_trips_explain():
    text = "explain analyze select p_name from part"
    statement = parse_statement(text)
    printed = print_statement(statement)
    assert printed.lower().startswith("explain analyze ")
    assert isinstance(parse_statement(printed), AstExplain)


# ----------------------------------------------------------------------
# Database.sql explain plumbing
# ----------------------------------------------------------------------


def test_sql_explain_plan_does_not_execute(parts_db):
    explanation = parts_db.sql("select p_name from part", explain=True)
    assert explanation.rows is None
    assert explanation.registry is None
    assert "est=" in explanation.render()


def test_sql_explain_analyze_executes_and_annotates(parts_db):
    explanation = parts_db.sql("select p_name from part", explain="analyze")
    assert len(explanation.rows) == 12
    assert explanation.counters is not None
    rendered = explanation.render()
    assert "actual=12" in rendered
    document = explanation.to_json()
    assert document["plan"]["metrics"]["rows_out"] == 12
    assert document["trace"]["spans"][0]["kind"] == "plan"


def test_sql_explain_statement_text_routes(parts_db):
    explanation = parts_db.sql("explain select p_name from part")
    assert explanation.rows is None
    analyzed = parts_db.sql("explain analyze select p_name from part")
    assert len(analyzed.rows) == 12


@pytest.mark.parametrize("mode", ["plan", "analyze"])
def test_explain_names_the_row_iterator_subtrees(parts_db, mode):
    # A theta join has no batched form: its subtree stays on the row
    # iterators, and EXPLAIN is where a caller can see that.
    nested = parts_db.sql(
        "select p_name from part, partsupp where p_partkey < ps_partkey",
        explain=mode,
    )
    header = [
        line for line in nested.render().splitlines()
        if line.startswith("-- row-iterator subtrees: ")
    ]
    assert len(header) == 1
    assert header[0].endswith("(nested-loop join)")
    assert nested.to_json()["row_iterator_subtrees"] == [
        {"op": note.label, "reason": "nested-loop join"}
        for note in nested.fallbacks
    ]
    json.dumps(nested.to_json())
    compiled = parts_db.sql("select p_name from part", explain=mode)
    assert "row-iterator" not in compiled.render()
    assert compiled.to_json()["row_iterator_subtrees"] == []


def test_sql_explain_rejects_unknown_mode(parts_db):
    from repro.errors import PlanError

    with pytest.raises(PlanError):
        parts_db.sql("select p_name from part", explain="verbose")


# ----------------------------------------------------------------------
# Zero-allocation guard (tier-1: metrics off must mean metrics absent)
# ----------------------------------------------------------------------


def test_metrics_off_never_touches_metrics_machinery(parts_db, monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("metrics machinery used with collection off")

    monkeypatch.setattr(MetricsRegistry, "drive", boom)
    monkeypatch.setattr(OperatorMetrics, "__init__", boom)
    result = parts_db.sql(
        "select gapply(select count(*) from g) as (n) "
        "from partsupp group by ps_suppkey : g"
    )
    assert len(result.rows) == 3
    assert result.metrics is None


def test_metrics_on_populates_registry(parts_db):
    result = parts_db.sql("select p_name from part", collect_metrics=True)
    assert result.metrics.total("rows_out") >= 12


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_writes_json_traces(tmp_path, capsys):
    from repro.observe.__main__ import main

    code = main(
        [
            "--query", "Q1", "--analyze", "--scale", "0.01",
            "--json-dir", str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "=== Q1-gapply ===" in out and "=== Q1-baseline ===" in out
    for label in ("Q1-gapply", "Q1-baseline"):
        document = json.loads((tmp_path / f"{label}.json").read_text())
        assert document["analyze"] is True
        assert document["plan"]["metrics"]["executions"] == 1
