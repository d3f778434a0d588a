"""Library-level tour: building and running plans without SQL.

Everything the SQL front end does is available programmatically — this is
the level at which an XQuery translator (the paper's intended client)
would drive the engine. The tour builds Figure 2's Q1 plan by hand,
optimizes it, executes it, and inspects the optimizer's property
analyses directly.

Run:  python examples/algebra_tour.py
"""

from repro.algebra import (
    GApply,
    GroupBy,
    GroupScan,
    Join,
    Project,
    Select,
    TableScan,
    UnionAll,
    avg,
    col,
    eq,
    gt,
    lit,
)
from repro.execution import ExecutionContext, run_plan
from repro.optimizer import Optimizer, Planner
from repro.optimizer.properties import (
    covering_range,
    empty_on_empty,
    gp_eval_columns,
    referenced_columns,
)
from repro.storage import Catalog
from repro.workloads.tpch import TpchConfig, load_tpch


def build_q1(catalog: Catalog) -> GApply:
    """Figure 2 (left): Q1 as a logical plan."""
    outer = Join(
        TableScan.of(catalog.table("partsupp")),
        TableScan.of(catalog.table("part")),
        eq(col("ps_partkey"), col("p_partkey")),
    )
    group = outer.schema
    per_group = UnionAll(
        (
            Project(
                GroupScan("g", group),
                (
                    (col("p_name"), "name"),
                    (col("p_retailprice"), "price"),
                    (lit(None), "avgprice"),
                ),
            ),
            Project(
                GroupBy(
                    GroupScan("g", group), (), (avg(col("p_retailprice"), "m"),)
                ),
                ((lit(None), "name"), (lit(None), "price"), (col("m"), "avgprice")),
            ),
        )
    )
    return GApply(outer, ("ps_suppkey",), per_group, "g")


def main() -> None:
    catalog = Catalog()
    load_tpch(catalog, TpchConfig(scale=0.02))

    plan = build_q1(catalog)
    print("== logical plan (Figure 2, left) ==")
    print(plan.pretty())

    # ------------------------------------------------------------------
    # Property analyses from Section 4, directly.
    # ------------------------------------------------------------------
    print("\n== per-group query analyses ==")
    print("emptyOnEmpty:      ", empty_on_empty(plan.per_group))
    print("covering range:    ", covering_range(plan.per_group))
    print("gp-eval columns:   ", sorted(gp_eval_columns(plan.per_group)))
    print("referenced columns:", sorted(referenced_columns(plan.per_group)))

    # A filtered variant to show a non-trivial covering range:
    filtered_pgq = Project(
        Select(GroupScan("g", plan.outer.schema), gt(col("p_retailprice"), lit(1500.0))),
        ((col("p_name"), "name"),),
    )
    print(
        "covering range of a filtered per-group query:",
        covering_range(filtered_pgq),
    )

    # ------------------------------------------------------------------
    # Optimize and execute.
    # ------------------------------------------------------------------
    report = Optimizer(catalog).optimize(plan)
    print("\n== optimization ==")
    print("explored plans:", report.explored)
    print("fired rules:   ", ", ".join(report.fired) or "(none)")
    print(
        f"estimated cost: {report.original_estimate.cost:.0f} -> "
        f"{report.best_estimate.cost:.0f}"
    )

    physical = Planner(catalog).plan(report.best)
    ctx = ExecutionContext()
    rows = run_plan(physical, ctx)
    print(
        f"\n== execution == {len(rows)} rows, "
        f"{ctx.counters.total_work} work units, "
        f"{ctx.counters.groups_partitioned} groups"
    )
    for row in rows[:4]:
        print("  ", row)


if __name__ == "__main__":
    main()
