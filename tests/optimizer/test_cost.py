"""Unit tests for the Section-4.4 cost model."""

import pytest

from repro.algebra.expressions import (
    And,
    CaseWhen,
    InList,
    IsNull,
    Not,
    Or,
    avg,
    col,
    count_star,
    eq,
    le,
    lit,
)
from repro.algebra.operators import (
    Apply,
    Distinct,
    Exists,
    GApply,
    GroupBy,
    GroupScan,
    Join,
    JoinKind,
    OrderBy,
    Project,
    Prune,
    Select,
    TableScan,
    UnionAll,
)
from repro.api import Database
from repro.execution.indexscan import PIndexNestedLoopJoin
from repro.execution.joins import PHashJoin
from repro.fuzz.generator import generate_case
from repro.optimizer.cost import (
    DEFAULT_GROUP_ROWS,
    HASH_JOIN,
    INDEX_INTO_RIGHT,
    CostModel,
    Estimate,
)
from repro.optimizer.engine import Optimizer
from repro.optimizer.planner import Planner
from repro.storage import Catalog, DataType, table_from_rows
from tests.observe.test_plan_snapshots import FORMULATIONS


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(
        table_from_rows(
            "items",
            [
                ("id", DataType.INTEGER),
                ("grp", DataType.INTEGER),
                ("price", DataType.FLOAT),
            ],
            [(i, i % 10, float(i)) for i in range(1, 101)],
            primary_key=["id"],
        )
    )
    return catalog


@pytest.fixture
def model(catalog) -> CostModel:
    return CostModel(catalog)


def scan(catalog) -> TableScan:
    return TableScan.of(catalog.table("items"))


class TestSelectivity:
    def test_equality_uses_distinct_count(self, model):
        sel = model.selectivity(eq(col("grp"), lit(3)))
        assert sel == pytest.approx(0.1, abs=0.02)

    def test_range_uses_histogram(self, model):
        sel = model.selectivity(le(col("price"), lit(25.0)))
        assert 0.15 <= sel <= 0.35

    def test_and_multiplies(self, model):
        a = eq(col("grp"), lit(3))
        sel = model.selectivity(And(a, le(col("price"), lit(50.0))))
        assert sel < model.selectivity(a)

    def test_or_adds(self, model):
        a = eq(col("grp"), lit(3))
        assert model.selectivity(Or(a, a)) > model.selectivity(a)

    def test_not_complements(self, model):
        a = eq(col("grp"), lit(3))
        assert model.selectivity(Not(a)) == pytest.approx(
            1.0 - model.selectivity(a)
        )

    def test_in_list_sums_its_items(self, model):
        one = model.selectivity(eq(col("grp"), lit(3)))
        two = InList(col("grp"), (lit(3), lit(4)))
        assert model.selectivity(two) == pytest.approx(2 * one)
        # grp is 0..9: items outside the range select nothing.
        assert model.selectivity(InList(col("grp"), (lit(44), lit(137)))) == 0.0
        negated = InList(col("grp"), (lit(44),), negated=True)
        assert model.selectivity(negated) == 1.0

    def test_column_column_equality(self, model):
        sel = model.selectivity(eq(col("grp"), col("id")))
        assert 0.0 < sel <= 0.1

    def test_is_null(self, model):
        assert model.selectivity(IsNull(col("grp"))) < 0.5
        assert model.selectivity(IsNull(col("grp"), negated=True)) > 0.5

    def test_none_is_one(self, model):
        assert model.selectivity(None) == 1.0


class TestCardinalities:
    def test_table_scan_rows(self, model, catalog):
        assert model.estimate(scan(catalog)).rows == 100

    def test_select_scales_rows(self, model, catalog):
        node = Select(scan(catalog), eq(col("grp"), lit(3)))
        assert model.estimate(node).rows == pytest.approx(10.0, rel=0.3)

    def test_groupby_rows_is_distinct_count(self, model, catalog):
        node = GroupBy(scan(catalog), ("grp",), (count_star("n"),))
        assert model.estimate(node).rows == pytest.approx(10.0)

    def test_scalar_aggregate_one_row(self, model, catalog):
        node = GroupBy(scan(catalog), (), (count_star("n"),))
        assert model.estimate(node).rows == 1.0

    def test_fk_equijoin_rows(self, model, catalog):
        node = Join(scan(catalog), TableScan.of(catalog.table("items"), "i2"),
                    eq(col("items.id"), col("i2.id")))
        assert model.estimate(node).rows == pytest.approx(100.0, rel=0.2)

    def test_union_all_sums(self, model, catalog):
        node = UnionAll((scan(catalog), scan(catalog)))
        assert model.estimate(node).rows == 200.0

    def test_exists_single_row(self, model, catalog):
        assert model.estimate(Exists(scan(catalog))).rows == 1.0

    def test_distinct_bounded_by_input(self, model, catalog):
        node = Distinct(Prune(scan(catalog), ("items.grp",)))
        assert model.estimate(node).rows <= 100.0

    def test_distinct_counts_through_a_projection(self, model, catalog):
        """A constant has one value; a CASE at most its results' sum."""
        case = CaseWhen(((le(col("price"), lit(50.0)), col("grp")),), lit(0))
        node = Distinct(Project(scan(catalog), ((lit(1), "one"), (case, "c"))))
        assert model.estimate(node).rows == pytest.approx(1.0 * (10.0 + 1.0))

    def test_equality_passes_only_non_null_rows(self):
        catalog = Catalog()
        catalog.register(
            table_from_rows(
                "t",
                [("id", DataType.INTEGER), ("v", DataType.INTEGER)],
                [(i, i if i % 4 == 0 else None) for i in range(1, 101)],
                primary_key=["id"],
            )
        )
        model = CostModel(catalog)
        # v is NULL in three rows of four and has 25 values; id has 100.
        assert model.selectivity(eq(col("id"), col("v"))) == pytest.approx(0.25 / 100)
        join = Join(
            TableScan.of(catalog.table("t")),
            TableScan.of(catalog.table("t"), "u"),
            eq(col("t.v"), col("u.v")),
        )
        assert model.estimate(join).rows == pytest.approx(100 * 100 * 0.25 * 0.25 / 25)


class TestGApplyCost:
    def gapply(self, catalog, pgq_builder):
        outer = scan(catalog)
        return GApply(outer, ("grp",), pgq_builder(outer.schema), "g")

    def test_paper_formula_groups_times_pgq(self, model, catalog):
        """cost ~ partition + #groups x per-group cost (uniformity)."""
        node = self.gapply(
            catalog,
            lambda s: GroupBy(GroupScan("g", s), (), (count_star("n"),)),
        )
        estimate = model.estimate(node)
        assert estimate.rows == pytest.approx(10.0)  # one row per group
        # cost grows with the group count, not just input size
        assert estimate.cost > model.estimate(scan(catalog)).cost

    def test_narrower_outer_is_cheaper(self, model, catalog):
        wide = self.gapply(
            catalog,
            lambda s: GroupBy(GroupScan("g", s), (), (avg(col("price"), "m"),)),
        )
        pruned_outer = Prune(scan(catalog), ("items.grp", "items.price"))
        narrow = GApply(
            pruned_outer,
            ("grp",),
            GroupBy(GroupScan("g", pruned_outer.schema), (), (avg(col("price"), "m"),)),
            "g",
        )
        assert model.estimate(narrow).cost < model.estimate(wide).cost

    def test_selective_outer_is_cheaper(self, model, catalog):
        base = self.gapply(
            catalog,
            lambda s: GroupBy(GroupScan("g", s), (), (count_star("n"),)),
        )
        filtered_outer = Select(scan(catalog), le(col("price"), lit(10.0)))
        filtered = GApply(
            filtered_outer,
            ("grp",),
            GroupBy(GroupScan("g", scan(catalog).schema), (), (count_star("n"),)),
            "g",
        )
        # (GroupScan schema mismatch is irrelevant for costing)
        assert model.estimate(filtered).cost < model.estimate(base).cost

    def test_correlated_apply_multiplies_inner(self, model, catalog):
        inner = GroupBy(scan(catalog), (), (count_star("n"),))
        correlated = Apply(scan(catalog), inner, (("p", "id"),))
        uncorrelated = Apply(scan(catalog), inner, ())
        assert (
            model.estimate(correlated).cost
            > model.estimate(uncorrelated).cost * 5
        )


class TestIndexAwareness:
    def test_indexed_selection_cheaper(self, catalog):
        model = CostModel(catalog)
        node = Select(scan(catalog), eq(col("grp"), lit(3)))
        unindexed = model.estimate(node).cost
        catalog.table("items").create_index(["grp"])
        indexed = CostModel(catalog).estimate(node).cost
        assert indexed < unindexed

    def test_indexed_join_cheaper(self, catalog):
        small = table_from_rows(
            "probe", [("k", DataType.INTEGER)], [(1,), (2,)]
        )
        catalog.register(small)
        join = Join(
            TableScan.of(small),
            scan(catalog),
            eq(col("k"), col("grp")),
        )
        before = CostModel(catalog).estimate(join).cost
        catalog.table("items").create_index(["grp"])
        after = CostModel(catalog).estimate(join).cost
        assert after < before

    def test_lowered_join_is_the_one_priced(self):
        db = Database()
        db.create_table(
            "l", [("a", DataType.INTEGER), ("k", DataType.INTEGER)],
            [(i, i % 10) for i in range(16)],
        )
        db.create_table(
            "r", [("b", DataType.INTEGER), ("k2", DataType.INTEGER)],
            [(i, i % 10) for i in range(100)],
        )
        db.create_index("r", ["k2"])
        sql = "select a, b from l, r where k = k2"
        join = db.sql(sql).logical_plan.children()[0]
        assert isinstance(join, Join)
        # An index nested loop into r: 16 + 16 * (1 + 10) + 160 output
        # rows; the hash join would be 16 + 100 + 16 + 100 + 160 = 392.
        assert CostModel(db.catalog).estimate(join).cost == 352
        assert "IndexNLJoin(r via k2)[k=k2]" in str(db.sql(sql, explain=True))

    def test_index_lookups_are_priced_for_inner_joins_only(self, catalog):
        probe = table_from_rows("probe", [("k", DataType.INTEGER)], [(1,), (2,)])
        catalog.register(probe)
        catalog.table("items").create_index(["grp"])
        model = CostModel(catalog)
        inner = Join(TableScan.of(probe), scan(catalog), eq(col("k"), col("grp")))
        assert model.estimate(inner).cost < 100  # two lookups, not a scan
        for kind in (JoinKind.SEMI, JoinKind.ANTI, JoinKind.LEFT_OUTER):
            join = Join(inner.left, inner.right, inner.predicate, kind)
            pairs = join.equijoin_pairs()
            chosen = model.join_method(
                join, pairs, model.estimate(join.left), model.estimate(join.right)
            )
            assert chosen.method == HASH_JOIN and chosen.lookup is None
        chosen = model.join_method(
            inner,
            inner.equijoin_pairs(),
            model.estimate(inner.left),
            model.estimate(inner.right),
            use_indexes=False,
        )
        assert chosen.method == HASH_JOIN

    def test_orderby_cost_superlinear(self, catalog):
        model = CostModel(catalog)
        node = OrderBy(scan(catalog), (("price", True),))
        assert model.estimate(node).cost > model.estimate(scan(catalog)).cost + 100


class RecordingPlanner(Planner):
    """The default planner, recording every join it lowers."""

    def __init__(self, catalog):
        super().__init__(catalog)
        self.joins = []

    def _plan_join(self, node):
        physical = super()._plan_join(node)
        self.joins.append((node, physical))
        return physical


def priced_group_rows(model: CostModel, node, group_rows=DEFAULT_GROUP_ROWS, out=None):
    """Map ``id`` of every node under ``node`` to the group size the cost
    model estimates it at: the default, or inside a GApply's per-group
    plan the average group of that GApply."""
    out = {} if out is None else out
    out[id(node)] = group_rows
    if isinstance(node, GApply):
        priced_group_rows(model, node.outer, group_rows, out)
        priced_group_rows(model, node.per_group, model.groups(node, group_rows)[1], out)
    else:
        for child in node.children():
            priced_group_rows(model, child, group_rows, out)
    return out


def lowered_methods(catalog: Catalog, sql: str) -> list[str]:
    """Optimize ``sql``, lower the chosen plan with default options, and
    check every equi-join against the cost model: the join is priced at
    the method ``join_method`` chose (at the group size it was priced at,
    inside a GApply), and lowered to that operator, driven from that side,
    through that index. Returns the methods seen."""
    best = Optimizer(catalog).optimize(Database(catalog).plan(sql)).best
    planner = RecordingPlanner(catalog)
    planner.plan(best)
    model = CostModel(catalog)
    group_rows = priced_group_rows(model, best)
    methods = []
    for node, physical in planner.joins:
        pairs = node.equijoin_pairs()
        if node.kind == JoinKind.CROSS or not pairs:
            continue
        size = group_rows[id(node)]
        left, right = model.estimate(node.left, size), model.estimate(node.right, size)
        chosen = model.join_method(node, pairs, left, right)
        assert model.estimate(node, size) == Estimate(chosen.rows, chosen.cost)
        if chosen.method == HASH_JOIN:
            assert isinstance(physical, PHashJoin), physical.label()
        else:
            assert isinstance(physical, PIndexNestedLoopJoin), physical.label()
            assert physical.outer_is_left == (chosen.method == INDEX_INTO_RIGHT)
            assert physical.index is chosen.lookup.index
        methods.append(chosen.method)
    equijoins = [
        node
        for node in best.walk()
        if isinstance(node, Join) and node.kind != JoinKind.CROSS and node.equijoin_pairs()
    ]
    assert len(methods) == len(equijoins)
    return methods


class TestLoweredIsPriced:
    def test_paper_formulations(self, tpch_catalog):
        seen = set()
        for _, sql in FORMULATIONS:
            seen.update(lowered_methods(tpch_catalog, sql))
        assert HASH_JOIN in seen and len(seen) > 1

    def test_join_inside_a_per_group_plan(self):
        # 4 groups of 100 rows each join r (1,000 rows, 10 keys, indexed):
        # at the default 16-row group an index lookup (16 * (1 + 100))
        # beats hashing r (16 + 2 * 1,000); at the priced 100-row group the
        # hash join wins. The planner must lower the latter.
        db = Database()
        db.create_table(
            "l", [("a", DataType.INTEGER), ("k", DataType.INTEGER)],
            [(i % 4, i % 10) for i in range(400)],
        )
        db.create_table(
            "r", [("b", DataType.INTEGER), ("k2", DataType.INTEGER)],
            [(i, i % 10) for i in range(1000)],
        )
        db.create_index("r", ["k2"])
        sql = "select gapply(select b from g, r where k = k2) as (b) from l group by a : g"
        assert lowered_methods(db.catalog, sql) == [HASH_JOIN]
        join = next(
            node
            for node in db.sql(sql, explain=True).report.best.walk()
            if isinstance(node, Join)
        )
        model = CostModel(db.catalog)
        default = model.join_method(
            join, join.equijoin_pairs(), model.estimate(join.left), model.estimate(join.right)
        )
        assert default.method == INDEX_INTO_RIGHT

    def test_tier1_fuzz_slice(self):
        # The seeds the tier-1 ``quick`` sweep runs (tests/fuzz/test_differential.py).
        seen = set()
        for seed in range(200):
            case = generate_case(seed)
            seen.update(lowered_methods(case.db.build().catalog, case.sql))
        assert HASH_JOIN in seen
