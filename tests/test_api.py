"""Tests for the public Database facade."""

import inspect
from dataclasses import fields, replace

import pytest

import repro
from repro.api import Database, Prepared, QueryResult, _RunOptions
from repro.errors import CatalogError, PlanError
from repro.optimizer.plancache import options_tag
from repro.optimizer.planner import PlannerOptions
from repro.storage import DataType


class TestDatabaseDdl:
    def test_create_table_registers(self, parts_db):
        parts_db.create_table("extra", [("x", DataType.INTEGER)], [(1,)])
        assert parts_db.table("extra").rows == [(1,)]

    def test_create_duplicate_rejected(self, parts_db):
        with pytest.raises(CatalogError):
            parts_db.create_table("part", [("x", DataType.INTEGER)])

    def test_add_foreign_key_validates_columns(self, parts_db):
        with pytest.raises(Exception):
            parts_db.add_foreign_key("partsupp", ["nope"], "part", ["p_partkey"])


class TestQueryExecution:
    def test_sql_returns_query_result(self, parts_db):
        result = parts_db.sql("select count(*) from part")
        assert isinstance(result, QueryResult)
        assert result.rows == [(12,)]
        assert result.optimization is not None

    def test_optimize_false_skips_report(self, parts_db):
        result = parts_db.sql("select count(*) from part", optimize=False)
        assert result.optimization is None

    def test_plan_returns_logical(self, parts_db):
        from repro.algebra.operators import LogicalOperator

        plan = parts_db.plan("select p_name from part")
        assert isinstance(plan, LogicalOperator)

    def test_execute_accepts_prebuilt_plan(self, parts_db):
        plan = parts_db.plan("select p_name from part where p_partkey = 1")
        result = parts_db.execute(plan)
        assert result.rows == [("part1",)]

    def test_planner_options_forwarded(self, parts_db):
        sql = (
            "select gapply(select count(*) from g) from part "
            "group by p_brand : g"
        )
        hash_result = parts_db.sql(
            sql, planner_options=PlannerOptions(gapply_partitioning="hash")
        )
        sort_result = parts_db.sql(
            sql, planner_options=PlannerOptions(gapply_partitioning="sort")
        )
        assert sorted(hash_result.rows) == sorted(sort_result.rows)

    def test_counters_populated(self, parts_db):
        result = parts_db.sql("select count(*) from partsupp, part "
                              "where ps_partkey = p_partkey")
        assert result.counters.table_scan_rows > 0
        assert result.counters.total_work > 0

    def test_iteration_and_len(self, parts_db):
        result = parts_db.sql("select p_partkey from part")
        assert len(list(result)) == len(result) == 12


class TestExplain:
    def test_explain_includes_cost_header(self, parts_db):
        text = parts_db.explain("select count(*) from part")
        assert text.startswith("-- cost:")

    def test_explain_unoptimized(self, parts_db):
        text = parts_db.explain("select count(*) from part", optimize=False)
        assert not text.startswith("-- cost:")
        assert "TableScan" in text

    def test_explain_lists_fired_rules(self, parts_db):
        text = parts_db.explain(
            "select gapply(select count(*) from g) "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g"
        )
        assert "rules:" in text


class TestQueryResultHelpers:
    def test_to_table_roundtrip(self, parts_db):
        result = parts_db.sql("select p_partkey, p_name from part limit 2")
        table = result.to_table("snapshot")
        assert len(table) == 2
        assert table.schema == result.schema

    def test_to_dicts(self, parts_db):
        result = parts_db.sql("select p_partkey from part limit 1")
        assert result.to_dicts() == [{"p_partkey": 1}]

    def test_pretty_truncates(self, parts_db):
        result = parts_db.sql("select p_partkey from part")
        assert "more rows" in result.pretty(limit=2)


class TestRunOptionsSpelledOnce:
    """Guard against the option list re-growing per entry point: a knob is
    a field of the private run-options value or it is not accepted."""

    #: Per entry point, the parameters that are the request, not options.
    REQUEST = {
        Database.sql: {"self", "text", "params"},
        Database.execute: {"self", "logical", "sql_text"},
        Database.publish: {
            "self", "view", "query", "formulation", "chunk_bytes", "encoding",
        },
        Prepared.execute: {"self", "params"},
    }

    def test_entry_point_options_are_run_option_fields(self, parts_db):
        option_fields = set(_RunOptions.__dataclass_fields__)
        assert len(option_fields) == 9
        for method, request in self.REQUEST.items():
            parameters = inspect.signature(method).parameters.values()
            named = {
                p.name for p in parameters if p.kind is not p.VAR_KEYWORD
            }
            assert named - request <= option_fields, method.__qualname__
        # ``**options`` entry points accept exactly the fields: anything
        # else is refused by name, naming the public method.
        prepared = parts_db.prepare("select count(*) from part")
        for refused in (
            {"no_such_option": 1}, {"parallelism": 2}, {"backend": "thread"},
            {"engine": "volcano"}, {"trace": True},
        ):
            with pytest.raises(TypeError, match=r"Prepared\.execute\(\) got"):
                prepared.execute(**refused)
            with pytest.raises(TypeError, match=r"Database\.sql\(\) got"):
                parts_db.sql("select count(*) from part", **refused)
        with pytest.raises(TypeError, match=r"Database\.execute\(\) got"):
            parts_db.execute(parts_db.plan("select count(*) from part"), trace=True)
        assert not hasattr(repro, "_RunOptions")
        assert "_RunOptions" not in getattr(repro.api, "__all__", ())

    def test_planner_options_hold_no_optimizer_or_explain_switch(self, parts_db):
        assert len(fields(PlannerOptions)) == 6
        with pytest.raises(TypeError):
            PlannerOptions(optimizer_max_alternatives=8)
        with pytest.raises(TypeError):
            PlannerOptions(collect_estimates=True)
        # Only the rule set steers logical optimization, so only it keys plans.
        assert options_tag(PlannerOptions()) == ""
        assert options_tag(
            PlannerOptions(gapply_partitioning="sort", vector_batch_size=3)
        ) == ""
        assert options_tag(PlannerOptions(disabled_rules=("select_pushdown",)))

    def test_estimates_are_stamped_for_explain_only(self, parts_db):
        query = (
            "select gapply(select count(*) from g) as (n) "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g"
        )

        def nodes(physical):
            yield physical
            for child in physical.children():
                yield from nodes(child)

        explained = parts_db.sql(query, explain="plan")
        stamped = [n.est_rows for n in nodes(explained.physical_plan)]
        assert None not in stamped
        assert explained.render().count("est=") == len(stamped)
        plain = parts_db.sql(query)
        assert all(n.est_rows is None for n in nodes(plain.physical_plan))

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused_before_any_work(self, batch_size):
        # -1 used to return zero rows for any query (an empty ``range``),
        # 0 a bare ValueError from inside the scan. The options object
        # refuses the value, so no entry point ever sees it.
        with pytest.raises(PlanError, match="vector_batch_size must be >= 1"):
            PlannerOptions(vector_batch_size=batch_size)
        with pytest.raises(PlanError):
            replace(PlannerOptions(), vector_batch_size=batch_size)
