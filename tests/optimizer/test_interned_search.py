"""The interned search against the naive one it replaced.

``Optimizer`` hash-conses the subtrees of one search (``SearchSpace``):
each rule fires once per distinct subtree and each subtree is estimated
once. That must not change what the search finds, so every field of the
report is held to ``tests/optimizer/reference_search.py`` on the paper's
formulations, the Table-1 sweeps and the tier-1 fuzz slice, at caps that
truncate early, late and not at all. The rest pins what makes the
interning sound (every non-child field is in the key) and what makes it
pay (rule calls bounded by distinct subtrees; per-call tables freed by
refcount, not by the cyclic collector).
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.algebra import tree
from repro.algebra.expressions import (
    AggregateCall,
    AggregateFunction,
    And,
    Arithmetic,
    ArithmeticOp,
    BindParameter,
    CaseWhen,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Negate,
    Not,
    Or,
    Parameter,
    col,
    count_star,
    eq,
    lit,
)
from repro.algebra.operators import (
    Alias,
    Apply,
    Distinct,
    Exists,
    GApply,
    GroupBy,
    GroupScan,
    Join,
    JoinKind,
    Limit,
    LogicalOperator,
    OrderBy,
    Project,
    Prune,
    Remap,
    Select,
    TableScan,
    Union,
    UnionAll,
)
from repro.api import Database
from repro.errors import PlanError
from repro.fuzz.generator import generate_case
from repro.optimizer.engine import (
    Optimizer,
    SearchSpace,
    payload_fields,
    rewrite_everywhere,
)
from repro.optimizer.planner import Planner
from repro.optimizer.rules import DEFAULT_RULES, Rule, RuleContext
from repro.sql import ast as A
from repro.sql.binder import Binder
from repro.sql.normalize import parameterize
from repro.sql.parser import parse
from repro.storage import Catalog, DataType
from repro.storage.schema import Column, Schema
from tests.observe.test_plan_snapshots import FORMULATIONS
from tests.optimizer.reference_search import (
    reference_explore,
    reference_optimize,
    reference_rewrite_everywhere,
)
from tests.optimizer.test_engine import REPLAY_CASES

CAPS = (1, 3, 48, 128)


def bound_plans(catalog: Catalog, sql: str) -> list[LogicalOperator]:
    """The two plans a request can hand the optimizer: with its literals
    (no plan cache) and parameterized (a plan-cache miss)."""
    query = parse(sql)
    template, _ = parameterize(query)
    return [Binder(catalog).bind(query), Binder(catalog).bind(template)]


def assert_same_search(catalog: Catalog, plan: LogicalOperator, cap: int) -> None:
    rules = list(DEFAULT_RULES)
    optimizer = Optimizer(catalog, rules, max_alternatives=cap)
    try:
        expected = reference_optimize(catalog, rules, cap, plan)
    except Exception as error:
        with pytest.raises(type(error)):
            optimizer.optimize(plan)
        return
    # best, both estimates, explored, fired, rule_trace and truncated. ``==``
    # is the relation the interning itself relies on, so the reprs are held
    # equal too: they tell apart values ``==`` might wrongly call equal.
    report = optimizer.optimize(plan)
    assert report == expected
    assert repr(report) == repr(expected)
    trees = optimizer.explore(plan)
    expected_trees = reference_explore(catalog, rules, cap, plan)[0]
    assert trees == expected_trees
    assert [repr(tree) for tree in trees] == [repr(tree) for tree in expected_trees]


def _gapply_halves(divisor: str) -> str:
    return (
        "select gapply(select ps_partkey, ps_availqty / " + divisor + " as h"
        " from g where ps_availqty > 10) from partsupp, part"
        " where ps_partkey = p_partkey and p_size < 10 group by ps_suppkey : g"
    )


#: Sibling subtrees that differ only in a literal's type, where the rules
#: fire on both siblings: ``2`` and ``2.0`` are ``==`` in Python, but
#: ``/ 2`` is SQL integer division and ``/ 2.0`` is not.
MIXED_LITERAL_CASES = [
    ("mixed_literals_gapply", _gapply_halves("2") + " union all " + _gapply_halves("2.0")),
    (
        "mixed_literals_join",
        "select ps_partkey, ps_availqty / 2 as h from partsupp, part"
        " where ps_partkey = p_partkey and p_size < 10 union all"
        " select ps_partkey, ps_availqty / 2.0 as h from partsupp, part"
        " where ps_partkey = p_partkey and p_size < 10",
    ),
]


class TestAgainstReference:
    @pytest.mark.parametrize(
        "label,sql",
        REPLAY_CASES + MIXED_LITERAL_CASES,
        ids=[c[0] for c in REPLAY_CASES + MIXED_LITERAL_CASES],
    )
    def test_replay_cases(self, tpch_catalog, label, sql):
        for plan in bound_plans(tpch_catalog, sql):
            for cap in CAPS:
                assert_same_search(tpch_catalog, plan, cap)

    @pytest.mark.parametrize("label,sql", REPLAY_CASES, ids=[c[0] for c in REPLAY_CASES])
    def test_rewrite_everywhere(self, tpch_catalog, label, sql):
        context = RuleContext(tpch_catalog)
        plan = bound_plans(tpch_catalog, sql)[0]
        for rule in DEFAULT_RULES:
            assert rewrite_everywhere(plan, rule, context) == (
                reference_rewrite_everywhere(plan, rule, context)
            )

    def test_invalid_rebuilds_are_dropped(self):
        """A rewrite whose ancestors no longer validate is dropped there,
        the same way in both searches (the default rules never do this:
        they keep output schemas)."""
        context = RuleContext(Catalog())
        rule = RenameScans()
        scan = samples()[0]
        filtered = Select(scan, eq(col("t.a"), lit(1)))
        for plan in (scan, Distinct(scan), filtered, UnionAll((filtered, scan))):
            expected = reference_rewrite_everywhere(plan, rule, context)
            assert rewrite_everywhere(plan, rule, context) == expected
        assert reference_rewrite_everywhere(filtered, rule, context) == []

    def test_tier1_fuzz_slice(self):
        # The seeds the tier-1 ``quick`` sweep runs (tests/fuzz/test_differential.py).
        for seed in range(200):
            case = generate_case(seed)
            catalog = case.db.build().catalog
            for plan in bound_plans(catalog, case.sql):
                for cap in CAPS:
                    assert_same_search(catalog, plan, cap)


class RenameScans(Rule):
    """Re-aliases every table scan: not a valid rewrite, since references
    above the scan stop resolving."""

    name = "rename_scans"

    def apply(self, node, context):
        if isinstance(node, TableScan):
            return [dataclasses.replace(node, alias=f"{node.binding_name}_2")]
        return []


class CountingRule(Rule):
    """A rule that counts its ``apply`` calls into a shared tally."""

    def __init__(self, rule: Rule, calls: list[int]):
        self.rule = rule
        self.name = rule.name
        self.calls = calls

    def apply(self, node, context):
        self.calls[0] += 1
        return self.rule.apply(node, context)


class TestWork:
    def test_rules_fire_once_per_distinct_subtree(self, tpch_catalog):
        """Each rule sees each distinct subtree of the explored trees at
        most once; the naive search calls it at every node of every tree."""
        sql = dict(FORMULATIONS)["Q2-gapply"]
        plan = bound_plans(tpch_catalog, sql)[1]
        calls = [0]
        rules = [CountingRule(rule, calls) for rule in DEFAULT_RULES]
        trees = Optimizer(tpch_catalog, rules).explore(plan)
        distinct = {node for tree in trees for node in tree.walk()}
        bound = len(distinct) * len(rules)

        calls[0] = 0
        report = Optimizer(tpch_catalog, rules).optimize(plan)
        assert report.explored == len(trees)
        assert 0 < calls[0] <= bound

        calls[0] = 0
        reference_optimize(tpch_catalog, rules, 128, plan)
        assert calls[0] > bound

    def test_search_leaves_no_cyclic_garbage(self, tpch_catalog):
        """Every per-call table is freed by refcount when the search
        returns, not left for the cyclic collector; so is the estimate memo
        of the cost model that lowering the chosen plan uses."""
        plans = [bound_plans(tpch_catalog, sql)[1] for _, sql in FORMULATIONS]
        for plan in plans:  # warm-up: lazy statistics, first-call caches
            Planner(tpch_catalog).plan(Optimizer(tpch_catalog).optimize(plan).best)
        gc.collect()
        gc.disable()
        try:
            for plan in plans:
                report = Optimizer(tpch_catalog).optimize(plan)
                Planner(tpch_catalog).plan(report.best)
            assert gc.collect() == 0
        finally:
            gc.enable()


# ----------------------------------------------------------------------
# Interning keys
# ----------------------------------------------------------------------

SCHEMA = Schema([Column("a", DataType.INTEGER, "t"), Column("b", DataType.STRING, "t")])


def samples() -> list[LogicalOperator]:
    """One fresh instance of every operator class, every field non-empty."""
    scan = TableScan("t", SCHEMA, "t")
    group = GroupScan("g", SCHEMA)
    predicate = eq(col("t.a"), lit(1))
    return [
        scan,
        group,
        Select(scan, predicate),
        Project(scan, ((col("t.a"), "a"),)),
        Prune(scan, ("t.a",)),
        Join(scan, TableScan("t", SCHEMA, "u"), predicate, JoinKind.INNER),
        GroupBy(scan, ("t.b",), (count_star("n"),)),
        Distinct(scan),
        OrderBy(scan, (("t.a", True),)),
        UnionAll((scan, scan)),
        Union((scan, scan)),
        Exists(scan, False),
        Apply(scan, Exists(group), (("p", "t.a"),)),
        GApply(scan, ("t.a",), group, "g"),
        Limit(scan, 5),
        Remap(scan, (("t.a", Column("a", DataType.INTEGER, "r")),)),
        Alias(scan, "v"),
    ]


def perturbed(value):
    """A value of the same kind that is not equal to ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "2"
    if isinstance(value, Schema):
        return Schema(value.columns + (Column("z"),))
    if isinstance(value, tuple):
        return value + value[:1]
    if isinstance(value, Expression):
        return Not(value)
    raise AssertionError(f"no perturbation for {type(value).__name__}; add one")


def operator_classes(base: type = LogicalOperator) -> set[type]:
    found = set()
    for kind in base.__subclasses__():
        found.add(kind)
        found |= operator_classes(kind)
    return found


def space() -> SearchSpace:
    return SearchSpace(RuleContext(Catalog()), [])


class TestInterning:
    def test_every_operator_class_is_sampled(self):
        assert {type(node) for node in samples()} == operator_classes()

    def test_payload_fields_are_the_non_child_fields(self):
        for node in samples():
            payload = payload_fields(type(node))
            held = []
            for spec in dataclasses.fields(node):
                if spec.name not in payload:
                    value = getattr(node, spec.name)
                    held.extend(value if isinstance(value, tuple) else (value,))
            assert tuple(held) == node.children(), type(node).__name__
            # ``with_children`` carries every payload field over.
            assert node.with_children(node.children()) == node

    def test_equal_nodes_intern_together(self):
        interned = space()
        for first, second in zip(samples(), samples()):
            assert first is not second
            assert interned.intern(first) is interned.intern(second)

    @pytest.mark.parametrize(
        "node",
        [node for node in samples() if payload_fields(type(node))],
        ids=lambda node: type(node).__name__,
    )
    def test_one_differing_field_interns_apart(self, node):
        for name in payload_fields(type(node)):
            other = dataclasses.replace(node, **{name: perturbed(getattr(node, name))})
            interned = space()
            assert interned.intern(node) is not interned.intern(other), name

    def test_children_intern_by_identity(self):
        """Structurally equal children built separately share one interned
        object, so their parents intern together too."""
        interned = space()
        left = Join(samples()[0], samples()[0], None)
        right = Join(samples()[0], samples()[0], None)
        assert interned.intern(left) is interned.intern(right)
        canonical = interned.intern(left)
        assert canonical.left is canonical.right

    def test_literals_intern_by_type(self):
        """``2``, ``2.0`` and ``True`` are one value to Python but three
        SQL literals, and ``-0.0`` prints apart from ``0.0``: subtrees that
        differ only there are not interchangeable, so they intern apart,
        also as siblings in one tree."""
        values = [2, 2.0, True, 1, 1.0, 0.0, -0.0, None]
        projects = [Project(samples()[0], ((lit(value), "x"),)) for value in values]
        interned = space()
        canonical = [interned.intern(node) for node in projects]
        assert len({id(node) for node in canonical}) == len(values)
        tree = interned.intern(UnionAll((projects[0], projects[1])))
        assert [node.items[0][0].value for node in tree.inputs] == [2, 2.0]
        assert [type(node.items[0][0].value) for node in tree.inputs] == [int, float]

    def test_literal_equality_is_type_strict(self):
        assert lit(2) == lit(2) and hash(lit(2)) == hash(lit(2))
        assert lit(2) != lit(2.0) and lit(1) != lit(True) and lit(0.0) != lit(-0.0)
        assert BindParameter(2, 0) == BindParameter(2, 0)
        assert BindParameter(2, 0) != BindParameter(2.0, 0)
        assert BindParameter(2, 0) != BindParameter(2, 1)
        assert BindParameter(2, 0) != lit(2)


def expression_samples() -> list:
    """One instance of every expression dataclass (and the aggregate call,
    which holds one), every field non-empty."""
    a, one = col("t.a"), lit(1)
    return [
        a,
        one,
        BindParameter(2, 0),
        Parameter("p"),
        eq(a, one),
        And(eq(a, one), Not(a)),
        Or(eq(a, one), Not(a)),
        Not(a),
        IsNull(a, True),
        Arithmetic(ArithmeticOp.ADD, a, one),
        Negate(a),
        InList(a, (one, lit(2)), True),
        CaseWhen(((eq(a, one), lit("x")), (Not(a), lit("y"))), lit("z")),
        FunctionCall("abs", (a,)),
        AggregateCall(AggregateFunction.SUM, a, True, "s"),
    ]


def ast_samples() -> list:
    """One instance of every AST dataclass, every field non-empty."""
    column, literal = A.AstColumn("a"), A.AstLiteral(1)
    query = A.AstQuery(
        (A.AstSelect((A.AstSelectItem(column),), (A.AstTableRef("t"),)),),
        False,
        (("a", True),),
        5,
    )
    select = A.AstSelect(
        (A.AstSelectItem(column, "x"),),
        (A.AstTableRef("t", "u"),),
        A.AstBinary("=", column, literal),
        ("a",),
        "g",
        A.AstBinary(">", A.AstFunction("count", (), star=True), literal),
        True,
        A.AstGApplyItem(query, ("c",)),
    )
    return [
        column,
        literal,
        A.AstParameter(0, seed=1),
        A.AstStar("t"),
        A.AstUnary("-", column),
        A.AstBinary("+", column, literal),
        A.AstIsNull(column, True),
        A.AstBetween(column, literal, A.AstLiteral(2), True),
        A.AstInList(column, (literal, A.AstLiteral(2)), True),
        A.AstInSubquery(column, query, True),
        A.AstExists(query, True),
        A.AstScalarSubquery(query),
        A.AstFunction("count", (column,), False, True),
        A.AstCase(((A.AstBinary("=", column, literal), literal),), column),
        A.AstSelectItem(column, "x"),
        A.AstTableRef("t", "u"),
        A.AstDerivedTable(query, "d", ("c",)),
        A.AstJoin(A.AstTableRef("t"), A.AstTableRef("u"), A.AstBinary("=", column, literal)),
        A.AstGApplyItem(query, ("c",)),
        select,
        query,
        A.AstExplain(query, True),
    ]


#: Every sample with the kinds of its tree.
TREES = (
    [(node, (LogicalOperator,)) for node in samples()]
    + [(node, (Expression,)) for node in expression_samples()]
    + [(node, (A.AstNode,)) for node in ast_samples()]
)


def dataclass_subclasses(base: type) -> set[type]:
    return {kind for kind in operator_classes(base) if dataclasses.is_dataclass(kind)}


def holds_node(value, kinds) -> bool:
    if isinstance(value, kinds):
        return True
    return isinstance(value, tuple) and any(holds_node(item, kinds) for item in value)


class TestOneFieldClassification:
    """Operators, expressions and the AST get their children, rebuilds and
    rewrites from one classification of their dataclass fields
    (:mod:`repro.algebra.tree`); the interning key is its payload half."""

    def test_every_class_is_sampled(self):
        assert {type(node) for node in expression_samples()} == (
            dataclass_subclasses(Expression) | {AggregateCall}
        )
        assert {type(node) for node in ast_samples()} == dataclass_subclasses(A.AstNode)

    @pytest.mark.parametrize(
        "node,kinds", TREES, ids=[type(node).__name__ for node, _ in TREES]
    )
    def test_children_rebuild_rewrite_and_payload(self, node, kinds):
        layout = tree.layouts(kinds)[type(node)]
        children = layout.children(node)
        assert layout.rebuild(node, children) == node
        assert tree.rewrite(node, kinds, lambda visited: visited) is node
        for wrong in (children + (children or (node,))[:1], children[:-1]):
            if wrong != children:
                with pytest.raises(PlanError):
                    layout.rebuild(node, wrong)
        assert layout.payload == tuple(
            spec.name
            for spec in dataclasses.fields(node)
            if not holds_node(getattr(node, spec.name), kinds)
        )
        if isinstance(node, (LogicalOperator, Expression)):
            assert node.children() == children

    def test_rewrite_rebuilds_only_the_changed_path(self):
        left, right = samples()[0], GroupScan("g", SCHEMA)
        join = Join(left, Select(right, eq(col("t.a"), lit(1))), None)
        renamed = TableScan("t", SCHEMA, "v")
        rewritten = tree.rewrite(
            join, (LogicalOperator,), lambda node: renamed if node is left else node
        )
        assert rewritten.left is renamed and rewritten.right is join.right


class TestMixedLiteralRows:
    """Regression: merging ``a / 2`` with ``a / 2.0`` would run integer
    division in both branches. Without a plan cache the literals reach the
    optimizer as written, so that is the path that must keep them apart;
    the rows and their value types must match the cached path."""

    @pytest.mark.parametrize(
        "sql,expected",
        [
            (
                "SELECT a / 2 AS y FROM t UNION ALL SELECT a / 2.0 AS y FROM t",
                [(1,), (1.5,)],
            ),
            (
                "SELECT a / 2.0 AS y FROM t UNION ALL SELECT a / 2 AS y FROM t",
                [(1.5,), (1,)],
            ),
            (
                "SELECT 1 AS x, a FROM t UNION ALL SELECT 1.0 AS x, a FROM t",
                [(1, 3), (1.0, 3)],
            ),
        ],
    )
    def test_rows_and_value_types(self, sql, expected):
        typed = lambda rows: [[(value, type(value)) for value in row] for row in rows]
        for database in (Database(plan_cache=None), Database()):
            database.create_table("t", [("a", DataType.INTEGER)], [(3,)])
            assert typed(database.sql(sql).rows) == typed(expected)
