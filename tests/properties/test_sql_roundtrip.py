"""Property-based tests over the SQL pipeline on random data.

Invariants checked end-to-end (parse -> bind -> optimize -> execute):

* optimization never changes results, for generated filter/aggregate/gapply
  queries over random tables;
* gapply aggregation always agrees with plain GROUP BY;
* both GApply partition phases (in-memory hash, external sort) agree.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Database
from repro.optimizer.planner import PlannerOptions
from repro.storage import DataType
from tests.conftest import ALL_RULES_OFF


@st.composite
def random_db(draw):
    db = Database()
    size = draw(st.integers(min_value=0, max_value=25))
    rows = [
        (
            i,
            draw(st.integers(min_value=0, max_value=4)),
            draw(
                st.one_of(
                    st.none(),
                    st.floats(min_value=-50, max_value=50, allow_nan=False),
                )
            ),
        )
        for i in range(size)
    ]
    db.create_table(
        "t",
        [
            ("id", DataType.INTEGER),
            ("grp", DataType.INTEGER),
            ("val", DataType.FLOAT),
        ],
        rows,
        primary_key=["id"],
    )
    return db


thresholds = st.floats(min_value=-60, max_value=60, allow_nan=False)


def sorted_rows(result):
    return sorted(result.rows, key=repr)


class TestOptimizationInvariance:
    @given(db=random_db(), threshold=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_filter_query(self, db, threshold):
        sql = f"select id, val from t where val > {threshold}"
        assert sorted_rows(db.sql(sql, planner_options=ALL_RULES_OFF)) == sorted_rows(
            db.sql(sql)
        )

    @given(db=random_db())
    @settings(max_examples=40, deadline=None)
    def test_aggregate_query(self, db):
        sql = "select grp, count(*), avg(val), min(val) from t group by grp"
        assert sorted_rows(db.sql(sql, planner_options=ALL_RULES_OFF)) == sorted_rows(
            db.sql(sql)
        )

    @given(db=random_db(), threshold=thresholds)
    @settings(max_examples=40, deadline=None)
    def test_gapply_query(self, db, threshold):
        sql = (
            "select gapply(select count(*), null from g "
            f"where val >= {threshold} "
            "union all select null, count(*) from g "
            f"where val < {threshold}) as (above, below) "
            "from t group by grp : g"
        )
        assert sorted_rows(db.sql(sql, planner_options=ALL_RULES_OFF)) == sorted_rows(
            db.sql(sql)
        )


class TestGApplyAgainstGroupBy:
    @given(db=random_db())
    @settings(max_examples=40, deadline=None)
    def test_simple_aggregates_agree(self, db):
        gapply = db.sql(
            "select gapply(select count(*), avg(val) from g) as (n, m) "
            "from t group by grp : g"
        )
        grouped = db.sql("select grp, count(*), avg(val) from t group by grp")
        assert sorted_rows(gapply) == sorted_rows(grouped)

    @given(db=random_db())
    @settings(max_examples=30, deadline=None)
    def test_partitioning_strategies_agree(self, db):
        sql = (
            "select gapply(select count(*) from g where val is not null) "
            "from t group by grp : g"
        )
        hash_result = db.sql(sql)
        sort_result = db.sql(
            sql, planner_options=PlannerOptions(gapply_spill_threshold=1)
        )
        assert hash_result.rows == sort_result.rows

    @given(db=random_db(), threshold=thresholds)
    @settings(max_examples=30, deadline=None)
    def test_scalar_subquery_matches_manual_computation(self, db, threshold):
        result = db.sql(
            "select gapply(select count(*) from g where val > "
            "(select avg(val) from g)) as (n) from t group by grp : g"
        )
        rows = db.table("t").rows
        for grp, n in result.rows:
            group_values = [r[2] for r in rows if r[1] == grp and r[2] is not None]
            if not group_values:
                assert n == 0
                continue
            mean = sum(group_values) / len(group_values)
            expected = sum(1 for v in group_values if v > mean)
            assert n == expected
