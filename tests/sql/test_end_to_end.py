"""End-to-end SQL execution: text in, verified rows out.

These run through parse -> bind -> optimize -> lower -> execute and check
concrete results against hand-computed expectations on the parts_db
fixture (12 parts; supplier 100+i supplies parts with partkey % 3 == i;
part i has price 10*i, brand A iff i even, size i % 4).
"""

from repro.storage import DataType
from tests.conftest import ALL_RULES_OFF


def rows_sorted(rows) -> list:
    return sorted(rows, key=repr)


class TestScansAndFilters:
    def test_full_scan(self, parts_db):
        result = parts_db.sql("select p_partkey from part")
        assert len(result) == 12

    def test_filter(self, parts_db):
        result = parts_db.sql(
            "select p_partkey from part where p_retailprice > 100"
        )
        assert rows_sorted(result.rows) == [(11,), (12,)]

    def test_between_and_in(self, parts_db):
        result = parts_db.sql(
            "select p_partkey from part "
            "where p_partkey between 2 and 4 and p_brand in ('A', 'B')"
        )
        assert rows_sorted(result.rows) == [(2,), (3,), (4,)]

    def test_expression_projection(self, parts_db):
        result = parts_db.sql(
            "select p_partkey * 2 + 1 as x from part where p_partkey = 3"
        )
        assert result.rows == [(7,)]

    def test_case_when(self, parts_db):
        result = parts_db.sql(
            "select p_partkey, case when p_retailprice >= 60 then 'high' "
            "else 'low' end as band from part where p_partkey in (1, 12)"
        )
        assert rows_sorted(result.rows) == [(1, "low"), (12, "high")]

    def test_order_by_limit(self, parts_db):
        result = parts_db.sql(
            "select p_partkey from part order by p_retailprice desc limit 2"
        )
        assert result.rows == [(12,), (11,)]


class TestJoinsAndAggregates:
    def test_join_counts(self, parts_db):
        result = parts_db.sql(
            "select count(*) from partsupp, part where ps_partkey = p_partkey"
        )
        assert result.rows == [(12,)]

    def test_group_by_avg(self, parts_db):
        result = parts_db.sql(
            "select ps_suppkey, avg(p_retailprice) from partsupp, part "
            "where ps_partkey = p_partkey group by ps_suppkey order by ps_suppkey"
        )
        # supplier 100: parts 3,6,9,12 -> avg 75; 101: 1,4,7,10 -> 55; 102: 2,5,8,11 -> 65
        assert result.rows == [(100, 75.0), (101, 55.0), (102, 65.0)]

    def test_having(self, parts_db):
        result = parts_db.sql(
            "select p_brand, count(*) from part group by p_brand "
            "having count(*) >= 6 order by p_brand"
        )
        assert result.rows == [("A", 6), ("B", 6)]

    def test_three_way_join(self, parts_db):
        result = parts_db.sql(
            "select s_name, count(*) from supplier, partsupp, part "
            "where s_suppkey = ps_suppkey and ps_partkey = p_partkey "
            "group by s_name order by s_name"
        )
        assert result.rows == [("supp0", 4), ("supp1", 4), ("supp2", 4)]

    def test_explicit_join_syntax(self, parts_db):
        result = parts_db.sql(
            "select count(*) from partsupp join part on ps_partkey = p_partkey"
        )
        assert result.rows == [(12,)]

    def test_count_distinct(self, parts_db):
        result = parts_db.sql("select count(distinct p_brand) from part")
        assert result.rows == [(2,)]


class TestSubqueryExecution:
    def test_scalar_subquery(self, parts_db):
        result = parts_db.sql(
            "select p_partkey from part where p_retailprice > "
            "(select avg(p_retailprice) from part)"
        )
        # avg = 65; parts 7..12 are above
        assert sorted(result.rows) == [(7,), (8,), (9,), (10,), (11,), (12,)]

    def test_correlated_exists(self, parts_db):
        result = parts_db.sql(
            "select s_suppkey from supplier where exists "
            "(select 1 from partsupp, part "
            " where ps_suppkey = s_suppkey and ps_partkey = p_partkey "
            "   and p_retailprice > 110)"
        )
        # only part 12 (price 120) qualifies; supplied by supplier 100
        assert result.rows == [(100,)]

    def test_not_exists(self, parts_db):
        result = parts_db.sql(
            "select s_suppkey from supplier where not exists "
            "(select 1 from partsupp where ps_suppkey = s_suppkey "
            " and ps_partkey > 100)"
        )
        assert len(result) == 3  # nobody supplies partkeys above 100

    def test_in_subquery(self, parts_db):
        result = parts_db.sql(
            "select p_partkey from part where p_partkey in "
            "(select ps_partkey from partsupp where ps_suppkey = 100)"
        )
        assert sorted(result.rows) == [(3,), (6,), (9,), (12,)]


class TestNullSemantics:
    def test_null_filter_drops_unknown(self, parts_db):
        parts_db.create_table(
            "nullable",
            [("a", DataType.INTEGER)],
            [(1,), (None,), (3,)],
        )
        result = parts_db.sql("select a from nullable where a > 1")
        assert result.rows == [(3,)]

    def test_is_null(self, parts_db):
        parts_db.create_table(
            "nullable2",
            [("a", DataType.INTEGER)],
            [(1,), (None,)],
        )
        assert parts_db.sql("select a from nullable2 where a is null").rows == [(None,)]
        assert parts_db.sql("select a from nullable2 where a is not null").rows == [(1,)]


class TestGApplyEndToEnd:
    def test_counts_per_group(self, parts_db):
        result = parts_db.sql(
            "select gapply(select count(*) from g) as (n) "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g"
        )
        assert rows_sorted(result.rows) == [(100, 4), (101, 4), (102, 4)]

    def test_union_per_group(self, parts_db):
        result = parts_db.sql(
            """
            select gapply(
                select p_name, null from g where p_retailprice > 100
                union all
                select null, avg(p_retailprice) from g
            ) as (name, avgp)
            from partsupp, part where ps_partkey = p_partkey
            group by ps_suppkey : g
            """
        )
        # supplier 100 has parts 11? no: 100 supplies 3,6,9,12 -> only 12 > 100
        names = [row for row in result.rows if row[1] is not None]
        avgs = {row[0]: row[2] for row in result.rows if row[2] is not None}
        assert len(names) == 2  # part11 (supp102) and part12 (supp100)
        assert avgs == {100: 75.0, 101: 55.0, 102: 65.0}

    def test_unoptimized_matches_optimized(self, parts_db):
        sql = (
            "select gapply(select count(*), avg(p_retailprice) from g "
            "where p_brand = 'A') "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g"
        )
        a = rows_sorted(parts_db.sql(sql, planner_options=ALL_RULES_OFF).rows)
        b = rows_sorted(parts_db.sql(sql).rows)
        assert a == b

    def test_explain_mentions_gapply(self, parts_db):
        text = parts_db.sql(
            "select gapply(select p_name from g where p_retailprice > "
            "(select avg(p_retailprice) from g)) "
            "from part group by p_brand : g",
            explain=True,
        ).render()
        assert "GApply" in text

    def test_result_helpers(self, parts_db):
        result = parts_db.sql("select p_partkey from part limit 1")
        assert len(result.to_dicts()) == 1
        assert "p_partkey" in result.pretty()
        assert result.to_table("x").name == "x"
