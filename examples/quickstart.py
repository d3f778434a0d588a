"""Quickstart: the GApply operator in five minutes.

Builds a small database, runs ordinary SQL, then runs the paper's
``gapply`` extension — a per-group query bound to a relation-valued
variable — and shows what the optimizer does with it.

Run:  python examples/quickstart.py
"""

from repro.api import Database
from repro.storage import DataType


def main() -> None:
    db = Database()

    # ------------------------------------------------------------------
    # 1. Create tables (a part-supplier toy schema).
    # ------------------------------------------------------------------
    db.create_table(
        "part",
        [
            ("p_partkey", DataType.INTEGER),
            ("p_name", DataType.STRING),
            ("p_retailprice", DataType.FLOAT),
        ],
        [(i, f"part-{i}", float(i * 10)) for i in range(1, 13)],
        primary_key=["p_partkey"],
    )
    db.create_table(
        "partsupp",
        [("ps_suppkey", DataType.INTEGER), ("ps_partkey", DataType.INTEGER)],
        [(100 + (i % 3), i) for i in range(1, 13)],
    )
    db.add_foreign_key("partsupp", ["ps_partkey"], "part", ["p_partkey"])

    # ------------------------------------------------------------------
    # 2. Ordinary SQL works as expected.
    # ------------------------------------------------------------------
    print("== plain SQL ==")
    result = db.sql(
        "select ps_suppkey, count(*) as parts, avg(p_retailprice) as avg_price "
        "from partsupp, part where ps_partkey = p_partkey "
        "group by ps_suppkey order by ps_suppkey"
    )
    print(result.pretty())

    # ------------------------------------------------------------------
    # 3. The paper's extension: a per-group query over a relation-valued
    #    variable. GROUP BY declares the variable after ':'; the gapply()
    #    select item runs a full query against each group.
    #
    #    Here: for each supplier, every part priced above that supplier's
    #    own average. A plain GROUP BY cannot express this in one pass.
    # ------------------------------------------------------------------
    print("\n== gapply: parts above each supplier's own average ==")
    result = db.sql(
        """
        select gapply(
            select p_name, p_retailprice from g
            where p_retailprice > (select avg(p_retailprice) from g)
        ) as (name, price)
        from partsupp, part
        where ps_partkey = p_partkey
        group by ps_suppkey : g
        """
    )
    print(result.pretty())

    # ------------------------------------------------------------------
    # 4. Look at the plan: the engine partitions the join result once and
    #    runs the per-group query per group; the optimizer has pruned the
    #    outer query to the columns the group actually needs.
    # ------------------------------------------------------------------
    print("\n== optimized plan ==")
    print(
        db.sql(
            """
            select gapply(
                select p_name, p_retailprice from g
                where p_retailprice > (select avg(p_retailprice) from g)
            ) as (name, price)
            from partsupp, part
            where ps_partkey = p_partkey
            group by ps_suppkey : g
            """,
            explain=True,
        )
    )

    # ------------------------------------------------------------------
    # 5. Execution statistics come back with every result.
    # ------------------------------------------------------------------
    print("\n== counters ==")
    for name, value in result.counters.snapshot().items():
        print(f"  {name:<22} {value}")


if __name__ == "__main__":
    main()
