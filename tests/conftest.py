"""Shared fixtures: small hand-made databases and a tiny TPC-H instance."""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.optimizer.engine import Optimizer
from repro.storage import Catalog, DataType
from repro.workloads.tpch import TpchConfig, load_tpch


def pytest_addoption(parser):
    parser.addoption(
        "--update-snapshots",
        action="store_true",
        default=False,
        help="rewrite the golden EXPLAIN plan snapshots under "
        "tests/snapshots/ instead of comparing against them",
    )


@pytest.fixture
def update_snapshots(request) -> bool:
    return request.config.getoption("--update-snapshots")


@pytest.fixture
def optimizer_runs(monkeypatch) -> list:
    """Every plan handed to ``Optimizer.optimize`` from here on — tests
    assert on its length to show a path skipped (or paid for) a search."""
    runs: list = []
    original = Optimizer.optimize

    def counting(self, plan):
        runs.append(plan)
        return original(self, plan)

    monkeypatch.setattr(Optimizer, "optimize", counting)
    return runs


@pytest.fixture
def parts_db() -> Database:
    """A small supplier/part/partsupp database with declared keys.

    Layout: 12 parts, 3 suppliers; supplier 100+i supplies the parts with
    partkey % 3 == i, so each supplier supplies exactly 4 parts with prices
    {10i, ...}. Deterministic and small enough to verify by hand.
    """
    db = Database()
    db.create_table(
        "part",
        [
            ("p_partkey", DataType.INTEGER),
            ("p_name", DataType.STRING),
            ("p_brand", DataType.STRING),
            ("p_size", DataType.INTEGER),
            ("p_retailprice", DataType.FLOAT),
        ],
        [
            (i, f"part{i}", "A" if i % 2 == 0 else "B", i % 4, float(i * 10))
            for i in range(1, 13)
        ],
        primary_key=["p_partkey"],
    )
    db.create_table(
        "partsupp",
        [("ps_suppkey", DataType.INTEGER), ("ps_partkey", DataType.INTEGER)],
        [(100 + (i % 3), i) for i in range(1, 13)],
        primary_key=["ps_suppkey", "ps_partkey"],
    )
    db.create_table(
        "supplier",
        [("s_suppkey", DataType.INTEGER), ("s_name", DataType.STRING)],
        [(100 + i, f"supp{i}") for i in range(3)],
        primary_key=["s_suppkey"],
    )
    db.add_foreign_key("partsupp", ["ps_partkey"], "part", ["p_partkey"])
    db.add_foreign_key("partsupp", ["ps_suppkey"], "supplier", ["s_suppkey"])
    return db


@pytest.fixture(scope="session")
def tpch_catalog() -> Catalog:
    """A small shared TPC-H catalog (read-only across the session)."""
    catalog = Catalog()
    load_tpch(catalog, TpchConfig(scale=0.02), validate=True)
    return catalog


@pytest.fixture(scope="session")
def tpch_db(tpch_catalog: Catalog) -> Database:
    return Database(tpch_catalog)


def rows_sorted(rows) -> list:
    """Order-insensitive row-multiset comparison helper."""
    return sorted(rows, key=repr)
