"""Unit tests for semantic analysis (binder): names, aggregation,
subquery decorrelation, and the gapply extension."""

import pytest

from repro.algebra.operators import (
    Apply,
    Distinct,
    Exists,
    GApply,
    GroupBy,
    GroupScan,
    Limit,
    OrderBy,
    Project,
    Select,
    TableScan,
    UnionAll,
)
from repro.errors import BindError
from repro.sql.binder import bind_sql


class TestBasicBinding:
    def test_simple_projection(self, parts_db):
        plan = bind_sql("select p_name from part", parts_db.catalog)
        assert isinstance(plan, Project)
        assert plan.schema.names() == ["p_name"]

    def test_star_passthrough(self, parts_db):
        plan = bind_sql("select * from part", parts_db.catalog)
        assert isinstance(plan, TableScan)

    def test_qualified_references(self, parts_db):
        plan = bind_sql(
            "select part.p_name from part, partsupp "
            "where part.p_partkey = partsupp.ps_partkey",
            parts_db.catalog,
        )
        assert plan.schema.names() == ["p_name"]

    def test_unknown_column_rejected(self, parts_db):
        with pytest.raises(BindError):
            bind_sql("select mystery from part", parts_db.catalog)

    def test_unknown_table_rejected(self, parts_db):
        with pytest.raises(Exception):
            bind_sql("select a from missing", parts_db.catalog)

    def test_alias_scopes_names(self, parts_db):
        plan = bind_sql(
            "select p1.p_name from part p1, part p2 "
            "where p1.p_partkey = p2.p_partkey",
            parts_db.catalog,
        )
        assert plan.schema.names() == ["p_name"]

    def test_ambiguous_bare_name_rejected(self, parts_db):
        with pytest.raises(Exception):
            bind_sql(
                "select p_name from part p1, part p2",
                parts_db.catalog,
            )

    def test_order_by_and_limit(self, parts_db):
        plan = bind_sql(
            "select p_name, p_retailprice from part order by p_retailprice limit 3",
            parts_db.catalog,
        )
        assert isinstance(plan, Limit)
        assert isinstance(plan.child, OrderBy)

    def test_order_by_source_column_allowed(self, parts_db):
        plan = bind_sql("select p_name from part order by p_size", parts_db.catalog)
        assert plan.schema.names() == ["p_name"]

    def test_order_by_unknown_column(self, parts_db):
        with pytest.raises(Exception):
            bind_sql("select p_name from part order by mystery", parts_db.catalog)

    def test_distinct(self, parts_db):
        plan = bind_sql("select distinct p_brand from part", parts_db.catalog)
        assert isinstance(plan, Distinct)

    def test_derived_table(self, parts_db):
        plan = bind_sql(
            "select x from (select p_name from part) as d(x)",
            parts_db.catalog,
        )
        assert plan.schema.names() == ["x"]

    def test_derived_table_width_mismatch(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select x from (select p_name, p_brand from part) as d(x)",
                parts_db.catalog,
            )

    def test_output_name_deduplication(self, parts_db):
        plan = bind_sql("select p_name, p_name from part", parts_db.catalog)
        assert plan.schema.names() == ["p_name", "p_name_2"]


class TestAggregation:
    def test_group_by(self, parts_db):
        plan = bind_sql(
            "select p_brand, count(*), avg(p_retailprice) from part group by p_brand",
            parts_db.catalog,
        )
        grouped = [n for n in plan.walk() if isinstance(n, GroupBy)]
        assert grouped and grouped[0].keys == ("p_brand",)
        assert len(grouped[0].aggregates) == 2

    def test_scalar_aggregate(self, parts_db):
        plan = bind_sql("select count(*) from part", parts_db.catalog)
        grouped = [n for n in plan.walk() if isinstance(n, GroupBy)]
        assert grouped[0].is_scalar_aggregate

    def test_having(self, parts_db):
        plan = bind_sql(
            "select p_brand from part group by p_brand having count(*) > 3",
            parts_db.catalog,
        )
        assert any(isinstance(n, Select) for n in plan.walk())

    def test_duplicate_aggregates_computed_once(self, parts_db):
        plan = bind_sql(
            "select avg(p_retailprice), avg(p_retailprice) from part",
            parts_db.catalog,
        )
        grouped = [n for n in plan.walk() if isinstance(n, GroupBy)]
        assert len(grouped[0].aggregates) == 1

    def test_aggregate_in_where_rejected(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select p_brand from part where count(*) > 1",
                parts_db.catalog,
            )

    def test_arithmetic_over_aggregates(self, parts_db):
        plan = bind_sql(
            "select avg(p_retailprice) * 2 from part", parts_db.catalog
        )
        assert len(plan.schema) == 1


class TestSubqueries:
    def test_exists_becomes_apply(self, parts_db):
        plan = bind_sql(
            "select p_name from part where exists "
            "(select 1 from partsupp where ps_partkey = p_partkey)",
            parts_db.catalog,
        )
        applies = [n for n in plan.walk() if isinstance(n, Apply)]
        assert applies
        assert isinstance(applies[0].inner, Exists)
        assert applies[0].bindings  # correlated

    def test_not_exists(self, parts_db):
        plan = bind_sql(
            "select p_name from part where not exists "
            "(select 1 from partsupp where ps_partkey = p_partkey)",
            parts_db.catalog,
        )
        exists = [n for n in plan.walk() if isinstance(n, Exists)]
        assert exists[0].negated

    def test_in_subquery(self, parts_db):
        plan = bind_sql(
            "select p_name from part where p_partkey in "
            "(select ps_partkey from partsupp)",
            parts_db.catalog,
        )
        assert any(isinstance(n, Exists) for n in plan.walk())

    def test_scalar_subquery_in_where(self, parts_db):
        plan = bind_sql(
            "select p_name from part where p_retailprice > "
            "(select avg(p_retailprice) from part)",
            parts_db.catalog,
        )
        assert any(isinstance(n, Apply) for n in plan.walk())
        # internal subquery column pruned away
        assert plan.schema.names() == ["p_name"]

    def test_scalar_subquery_in_select(self, parts_db):
        plan = bind_sql(
            "select p_name, (select max(p_retailprice) from part) from part",
            parts_db.catalog,
        )
        assert len(plan.schema) == 2

    def test_in_subquery_width_checked(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select p_name from part where p_partkey in "
                "(select ps_partkey, ps_suppkey from partsupp)",
                parts_db.catalog,
            )

    def test_correlated_scalar_subquery(self, parts_db):
        plan = bind_sql(
            "select p_name from part p1 where p_retailprice >= "
            "(select max(p_retailprice) from part p2 "
            " where p2.p_brand = p1.p_brand)",
            parts_db.catalog,
        )
        applies = [n for n in plan.walk() if isinstance(n, Apply)]
        assert applies and applies[0].bindings


class TestUnions:
    def test_union_all(self, parts_db):
        plan = bind_sql(
            "select p_name from part union all select s_name from supplier",
            parts_db.catalog,
        )
        assert isinstance(plan, UnionAll)

    def test_union_distinct(self, parts_db):
        plan = bind_sql(
            "select p_brand from part union select p_brand from part",
            parts_db.catalog,
        )
        from repro.algebra.operators import Union

        assert isinstance(plan, Union)

    def test_width_mismatch(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select p_name, p_brand from part union all select s_name from supplier",
                parts_db.catalog,
            )


class TestGApplyBinding:
    def test_basic_gapply(self, parts_db):
        plan = bind_sql(
            "select gapply(select count(*) from g) "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g",
            parts_db.catalog,
        )
        assert isinstance(plan, GApply)
        assert plan.grouping_columns == ("ps_suppkey",)
        scans = [n for n in plan.per_group.walk() if isinstance(n, GroupScan)]
        assert scans and scans[0].variable == "g"

    def test_as_clause_names_outputs(self, parts_db):
        plan = bind_sql(
            "select gapply(select count(*), avg(p_retailprice) from g) as (n, m) "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g",
            parts_db.catalog,
        )
        assert plan.schema.names()[-2:] == ["n", "m"]

    def test_group_variable_required(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select gapply(select count(*) from g) from part group by p_brand",
                parts_db.catalog,
            )

    def test_grouping_column_required(self, parts_db):
        with pytest.raises(Exception):
            bind_sql(
                "select gapply(select count(*) from g) from part group by nothing : g",
                parts_db.catalog,
            )

    def test_gapply_inside_subquery_rejected(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select p_name from part where exists "
                "(select gapply(select count(*) from g) from partsupp group by ps_suppkey : g)",
                parts_db.catalog,
            )

    def test_as_clause_width_mismatch(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select gapply(select count(*) from g) as (a, b) "
                "from part group by p_brand : g",
                parts_db.catalog,
            )

    def test_group_variable_not_aliasable(self, parts_db):
        with pytest.raises(BindError):
            bind_sql(
                "select gapply(select count(*) from g as h) "
                "from part group by p_brand : g",
                parts_db.catalog,
            )

    def test_whole_group_select_star(self, parts_db):
        plan = bind_sql(
            "select gapply(select * from g where exists "
            "(select p_partkey from g where p_retailprice > 100)) "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g",
            parts_db.catalog,
        )
        # the canonical group-selection shape: Apply directly under GApply
        assert isinstance(plan.per_group, Apply)

    def test_subquery_conjuncts_bind_above_plain_ones(self, parts_db):
        plan = bind_sql(
            "select gapply("
            "select p_name from g where p_brand = 'A' and p_retailprice > "
            "(select avg(p_retailprice) from g)"
            ") from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g",
            parts_db.catalog,
        )
        applies = [n for n in plan.per_group.walk() if isinstance(n, Apply)]
        assert applies
        # the plain conjunct sits on the Apply's outer side
        assert isinstance(applies[0].outer, Select)


class TestAggregatesInsideExpressions:
    """Aggregates are found, and replaced by the grouped columns, wherever
    an expression holds them: an IN list's operand too."""

    @staticmethod
    def database():
        from repro.api import Database
        from repro.storage import DataType

        db = Database()
        db.create_table(
            "t",
            [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
            [(1, 1), (3, 2), (3, 1), (6, 3)],
        )
        return db

    @pytest.mark.parametrize(
        "sql",
        [
            "select b from t group by b having sum(a) in (6, 3)",
            "select b, sum(a) in (6, 3) from t group by b",
        ],
    )
    def test_in_list_over_an_aggregate_matches_sqlite(self, sql):
        from repro.fuzz.oracle import compare_multisets, run_oracle, sqlite_mirror

        db = self.database()
        rows = db.sql(sql).rows
        connection = sqlite_mirror(db.catalog)
        try:
            mismatch = compare_multisets(rows, run_oracle(sql, connection))
        finally:
            connection.close()
        assert mismatch is None, mismatch.describe("engine", "sqlite")

    def test_nested_aggregate_is_rejected(self):
        with pytest.raises(BindError, match=r"aggregate max\(\) is not allowed"):
            bind_sql("select sum(max(a)) from t", self.database().catalog)
