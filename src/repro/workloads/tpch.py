"""Deterministic TPC-H data generator (the subset the paper uses).

The paper's experiments run on the TPC-H benchmark database; the queries
touch ``supplier``, ``partsupp`` and ``part`` (Section 2 reproduces that
part of the schema). This generator follows the TPC-H specification's
shapes at laptop scale:

* ``region`` (5 rows) and ``nation`` (25 rows) — fixed;
* ``part`` — SF x 2,000 rows, ``p_retailprice`` from the spec's formula
  ``(90000 + ((partkey/10) mod 20001) + 100 (partkey mod 1000)) / 100``,
  sizes uniform in 1..50, brands ``Brand#MN``;
* ``supplier`` — SF x 100 rows with account balances uniform in
  [-999.99, 9999.99];
* ``partsupp`` — 4 rows per part, supplier assignment per the spec's
  ``(partkey + i (S/4 + (partkey - 1)/S)) mod S + 1`` permutation, so every
  supplier supplies about ``80 x SF`` parts — the group-size distribution
  the paper's speedups depend on.

Determinism: everything derives from the row keys and a seeded PRNG, so
benchmark runs are exactly reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.storage.schema import Column, Schema
from repro.storage.types import DataType

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)

_TYPE_SYLLABLE_1 = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
_TYPE_SYLLABLE_2 = ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
_TYPE_SYLLABLE_3 = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
_CONTAINERS_1 = ("SM", "MED", "LG", "JUMBO", "WRAP")
_CONTAINERS_2 = ("CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM")
_NAME_WORDS = (
    "almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
    "blanched", "blue", "blush", "brown", "burlywood", "burnished",
    "chartreuse", "chiffon", "chocolate", "coral", "cornflower", "cornsilk",
    "cream", "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
    "floral", "forest", "frosted", "gainsboro", "ghost", "goldenrod",
)


@dataclass(frozen=True)
class TpchConfig:
    """Scale and determinism knobs for the generator.

    ``scale`` is the TPC-H scale factor; the paper used SF=5 (a 5 GB
    database) on a 1 GHz machine — we default to SF=0.01, which yields the
    same group structure (~80 parts per supplier after the 4-suppliers-per-
    part expansion is inverted) at interpreter-friendly sizes.
    """

    scale: float = 0.01
    seed: int = 20030609  # SIGMOD 2003 started June 9, 2003
    parts_per_scale: int = 2_000
    suppliers_per_scale: int = 100

    @property
    def part_count(self) -> int:
        return max(8, int(self.parts_per_scale * self.scale))

    @property
    def supplier_count(self) -> int:
        return max(4, int(self.suppliers_per_scale * self.scale))


def _part_retailprice(partkey: int) -> float:
    return (90_000 + ((partkey // 10) % 20_001) + 100 * (partkey % 1_000)) / 100.0


def _part_name(rng: random.Random) -> str:
    return " ".join(rng.sample(_NAME_WORDS, 5))


def _part_type(rng: random.Random) -> str:
    return " ".join(
        (
            rng.choice(_TYPE_SYLLABLE_1),
            rng.choice(_TYPE_SYLLABLE_2),
            rng.choice(_TYPE_SYLLABLE_3),
        )
    )


def _comment(rng: random.Random, low: int, high: int) -> str:
    length = rng.randint(low, high)
    words = []
    while sum(len(w) + 1 for w in words) < length:
        words.append(rng.choice(_NAME_WORDS))
    return " ".join(words)


def generate_region() -> Table:
    schema = Schema(
        (
            Column("r_regionkey", DataType.INTEGER, "region", nullable=False),
            Column("r_name", DataType.STRING, "region", nullable=False),
            Column("r_comment", DataType.STRING, "region"),
        )
    )
    rows = [(key, name, f"region {name.lower()}") for key, name in enumerate(REGIONS)]
    return Table("region", schema, rows, primary_key=("r_regionkey",))


def generate_nation() -> Table:
    schema = Schema(
        (
            Column("n_nationkey", DataType.INTEGER, "nation", nullable=False),
            Column("n_name", DataType.STRING, "nation", nullable=False),
            Column("n_regionkey", DataType.INTEGER, "nation", nullable=False),
            Column("n_comment", DataType.STRING, "nation"),
        )
    )
    rows = [
        (key, name, region, f"nation {name.lower()}")
        for key, (name, region) in enumerate(NATIONS)
    ]
    return Table("nation", schema, rows, primary_key=("n_nationkey",))


def generate_part(config: TpchConfig) -> Table:
    rng = random.Random(config.seed ^ 0x9A97)
    schema = Schema(
        (
            Column("p_partkey", DataType.INTEGER, "part", nullable=False),
            Column("p_name", DataType.STRING, "part", nullable=False),
            Column("p_mfgr", DataType.STRING, "part", nullable=False),
            Column("p_brand", DataType.STRING, "part", nullable=False),
            Column("p_type", DataType.STRING, "part", nullable=False),
            Column("p_size", DataType.INTEGER, "part", nullable=False),
            Column("p_container", DataType.STRING, "part", nullable=False),
            Column("p_retailprice", DataType.FLOAT, "part", nullable=False),
            Column("p_comment", DataType.STRING, "part"),
        )
    )
    rows = []
    for partkey in range(1, config.part_count + 1):
        mfgr = rng.randint(1, 5)
        brand = mfgr * 10 + rng.randint(1, 5)
        rows.append(
            (
                partkey,
                _part_name(rng),
                f"Manufacturer#{mfgr}",
                f"Brand#{brand}",
                _part_type(rng),
                rng.randint(1, 50),
                f"{rng.choice(_CONTAINERS_1)} {rng.choice(_CONTAINERS_2)}",
                _part_retailprice(partkey),
                _comment(rng, 5, 22),
            )
        )
    return Table("part", schema, rows, primary_key=("p_partkey",))


def generate_supplier(config: TpchConfig) -> Table:
    rng = random.Random(config.seed ^ 0x5059)
    schema = Schema(
        (
            Column("s_suppkey", DataType.INTEGER, "supplier", nullable=False),
            Column("s_name", DataType.STRING, "supplier", nullable=False),
            Column("s_address", DataType.STRING, "supplier", nullable=False),
            Column("s_nationkey", DataType.INTEGER, "supplier", nullable=False),
            Column("s_phone", DataType.STRING, "supplier", nullable=False),
            Column("s_acctbal", DataType.FLOAT, "supplier", nullable=False),
            Column("s_comment", DataType.STRING, "supplier"),
        )
    )
    rows = []
    for suppkey in range(1, config.supplier_count + 1):
        nation = rng.randint(0, len(NATIONS) - 1)
        rows.append(
            (
                suppkey,
                f"Supplier#{suppkey:09d}",
                _comment(rng, 10, 30).title(),
                nation,
                f"{10 + nation}-{rng.randint(100, 999)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
                round(rng.uniform(-999.99, 9999.99), 2),
                _comment(rng, 25, 60),
            )
        )
    return Table("supplier", schema, rows, primary_key=("s_suppkey",))


def generate_partsupp(config: TpchConfig) -> Table:
    """4 partsupp rows per part, spec supplier-assignment permutation."""
    rng = random.Random(config.seed ^ 0x9559)
    schema = Schema(
        (
            Column("ps_partkey", DataType.INTEGER, "partsupp", nullable=False),
            Column("ps_suppkey", DataType.INTEGER, "partsupp", nullable=False),
            Column("ps_availqty", DataType.INTEGER, "partsupp", nullable=False),
            Column("ps_supplycost", DataType.FLOAT, "partsupp", nullable=False),
            Column("ps_comment", DataType.STRING, "partsupp"),
        )
    )
    supplier_count = config.supplier_count
    # The spec's permutation assumes S >= 40; at laptop scale we keep its
    # shape (partkey base + stride per replica) but use a stride of S/4,
    # which is distinct for the four replicas at any S >= 4.
    stride = max(1, supplier_count // 4)
    replicas = min(4, supplier_count)
    rows = []
    for partkey in range(1, config.part_count + 1):
        for i in range(replicas):
            suppkey = (partkey + i * stride) % supplier_count + 1
            rows.append(
                (
                    partkey,
                    suppkey,
                    rng.randint(1, 9_999),
                    round(rng.uniform(1.0, 1_000.0), 2),
                    _comment(rng, 10, 40),
                )
            )
    return Table("partsupp", schema, rows, primary_key=("ps_partkey", "ps_suppkey"))


def load_tpch(
    catalog: Catalog, config: TpchConfig | None = None, validate: bool = False
) -> TpchConfig:
    """Generate and register all tables with keys/foreign keys declared."""
    config = config or TpchConfig()
    catalog.register(generate_region(), replace=True)
    catalog.register(generate_nation(), replace=True)
    catalog.register(generate_part(config), replace=True)
    catalog.register(generate_supplier(config), replace=True)
    catalog.register(generate_partsupp(config), replace=True)
    catalog.add_foreign_key("nation", ["n_regionkey"], "region", ["r_regionkey"])
    catalog.add_foreign_key("supplier", ["s_nationkey"], "nation", ["n_nationkey"])
    catalog.add_foreign_key("partsupp", ["ps_partkey"], "part", ["p_partkey"])
    catalog.add_foreign_key("partsupp", ["ps_suppkey"], "supplier", ["s_suppkey"])
    # Index the key columns and the selective predicate columns the
    # paper-style workloads probe (the paper's server had clustered and
    # secondary indexes; without them the large Table-1 ratios cannot
    # materialize on any substrate). Through the catalog, so a durable
    # store journals them like the tables and keys above.
    catalog.create_index("part", ["p_partkey"])
    catalog.create_index("part", ["p_retailprice"])
    catalog.create_index("part", ["p_size"])
    catalog.create_index("supplier", ["s_suppkey"])
    catalog.create_index("partsupp", ["ps_partkey"])
    catalog.create_index("partsupp", ["ps_suppkey"])
    catalog.create_index("nation", ["n_nationkey"])
    if validate:
        catalog.validate_constraints()
    catalog.invalidate_statistics()
    return config
