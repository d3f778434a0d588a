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
from tests.conftest import ALL_RULES_OFF


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

    def test_rule_free_run_reports_one_plan(self, parts_db):
        result = parts_db.sql(
            "select count(*) from part", planner_options=ALL_RULES_OFF
        )
        assert result.optimization.explored == 1
        assert result.optimization.fired == []

    def test_plan_returns_logical(self, parts_db):
        from repro.algebra.operators import LogicalOperator

        plan = parts_db.plan("select p_name from part")
        assert isinstance(plan, LogicalOperator)

    def test_rule_free_run_executes_the_bound_plan(self, parts_db):
        sql = "select p_name from part where p_partkey = 1"
        result = parts_db.sql(sql, planner_options=ALL_RULES_OFF)
        assert result.logical_plan == parts_db.plan(sql)
        assert result.rows == [("part1",)]

    def test_planner_options_forwarded(self, parts_db):
        sql = (
            "select gapply(select count(*) from g) from part "
            "group by p_brand : g"
        )
        # Kept a GApply (not rewritten to a GROUP BY), so a threshold spills.
        as_gapply = PlannerOptions(disabled_rules=("gapply_to_groupby",))
        plain = parts_db.sql(sql, planner_options=as_gapply)
        spilled = parts_db.sql(
            sql, planner_options=replace(as_gapply, gapply_spill_threshold=1)
        )
        assert plain.counters.spill_runs == 0
        assert spilled.counters.spill_runs > 0
        assert spilled.rows == plain.rows

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
        text = str(parts_db.sql("select count(*) from part", explain=True))
        assert text.splitlines()[1].startswith("-- cost:")

    def test_explain_unoptimized(self, parts_db):
        text = str(
            parts_db.sql(
                "select count(*) from part",
                explain=True,
                planner_options=ALL_RULES_OFF,
            )
        )
        assert "; explored 1 plan\n-- rules fired: none\n" in text
        assert "TableScan" in text

    def test_explain_lists_fired_rules(self, parts_db):
        text = str(
            parts_db.sql(
                "select gapply(select count(*) from g) "
                "from partsupp, part where ps_partkey = p_partkey "
                "group by ps_suppkey : g",
                explain=True,
            )
        )
        fired = text.splitlines()[2]
        assert fired.startswith("-- rules fired: ") and "none" not in fired


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
        Database.publish: {
            "self", "view", "query", "formulation", "chunk_bytes", "encoding",
        },
        Prepared.execute: {"self", "params"},
    }

    def test_entry_point_options_are_run_option_fields(self, parts_db):
        option_fields = set(_RunOptions.__dataclass_fields__)
        assert len(option_fields) == 7
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
            # ``optimize=False`` is ``disabled_rules`` naming every rule;
            # ``use_plan_cache=False`` is ``Database(plan_cache=None)``.
            {"optimize": False}, {"use_plan_cache": True},
        ):
            name = min(refused)
            with pytest.raises(TypeError, match=rf"Prepared\.execute\(\) got .*'{name}'"):
                prepared.execute(**refused)
            with pytest.raises(TypeError, match=rf"Database\.sql\(\) got .*'{name}'"):
                parts_db.sql("select count(*) from part", **refused)
        # ``sql``/``prepare``/``publish`` run queries; ``plan`` only binds.
        assert not hasattr(Database, "execute")
        assert not hasattr(Database, "explain")
        assert not hasattr(repro, "_RunOptions")
        assert "_RunOptions" not in getattr(repro.api, "__all__", ())

    def test_planner_options_hold_no_optimizer_or_explain_switch(self, parts_db):
        assert len(fields(PlannerOptions)) == 4
        with pytest.raises(TypeError):
            PlannerOptions(optimizer_max_alternatives=8)
        with pytest.raises(TypeError):
            PlannerOptions(collect_estimates=True)
        # Only the rule set steers logical optimization, so only it keys plans.
        assert options_tag(PlannerOptions()) == ""
        assert options_tag(
            PlannerOptions(gapply_spill_threshold=8, vector_batch_size=3)
        ) == ""
        assert options_tag(PlannerOptions(disabled_rules=("select_pushdown",)))

    def test_every_lowered_node_carries_an_estimate(self, parts_db):
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
        # A plain run lowers the same way: same plan, same estimates.
        plain = parts_db.sql(query)
        assert [n.est_rows for n in nodes(plain.physical_plan)] == stamped

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_is_refused_before_any_work(self, batch_size):
        # -1 used to return zero rows for any query (an empty ``range``),
        # 0 a bare ValueError from inside the scan. The options object
        # refuses the value, so no entry point ever sees it.
        with pytest.raises(PlanError, match="vector_batch_size must be >= 1"):
            PlannerOptions(vector_batch_size=batch_size)
        with pytest.raises(PlanError):
            replace(PlannerOptions(), vector_batch_size=batch_size)
