"""Copy-on-write versioning: frozen tables, catalog snapshots, atomic
batch inserts, and the lock-free index state publication readers rely on."""

from __future__ import annotations

import threading

import pytest

from repro.errors import CatalogError, ConstraintError
from repro.storage.catalog import Catalog, CatalogSnapshot
from repro.storage.table import table_from_rows
from repro.storage.types import DataType


def ledger_catalog() -> Catalog:
    catalog = Catalog()
    catalog.register(
        table_from_rows(
            "ledger",
            [("id", DataType.INTEGER), ("amount", DataType.INTEGER)],
            [(1, 5), (2, -5)],
            primary_key=["id"],
        )
    )
    return catalog


class TestFrozenTables:
    def test_freeze_blocks_mutation(self):
        table = table_from_rows("t", [("a", DataType.INTEGER)], [(1,)])
        table.freeze()
        with pytest.raises(ConstraintError, match="frozen snapshot"):
            table.insert((2,))
        with pytest.raises(ConstraintError, match="frozen snapshot"):
            table.clear()
        assert table.rows == [(1,)]

    def test_create_index_on_a_frozen_table_raises(self):
        # The frozen version is shared with the live catalog: an index
        # added in place would show there unjournaled, at no new version.
        catalog = ledger_catalog()
        version = catalog.version
        frozen = catalog.snapshot().table("ledger")
        with pytest.raises(ConstraintError, match="frozen snapshot"):
            frozen.create_index(["amount"])
        assert catalog.table("ledger").indexes == {}
        assert catalog.version == version
        # The catalog path clones first, so it still works.
        catalog.create_index("ledger", ["amount"])
        index = catalog.snapshot().table("ledger").create_index(["amount"])
        assert index is catalog.table("ledger").indexes[("amount",)]

    def test_clone_is_writable_and_independent(self):
        table = table_from_rows(
            "t",
            [("a", DataType.INTEGER), ("b", DataType.STRING)],
            [(1, "x")],
            primary_key=["a"],
        )
        table.create_index(["a"])
        table.freeze()
        twin = table.clone()
        assert not twin.frozen
        twin.insert((2, "y"))
        assert table.rows == [(1, "x")]
        assert twin.rows == [(1, "x"), (2, "y")]
        assert twin.schema == table.schema
        assert twin.primary_key == table.primary_key
        # Indexes were recreated on the clone and see its rows.
        index = twin.indexes[("a",)]
        assert [row for row in index.lookup((2,))] == [(2, "y")]

    def test_validate_row_still_enforced(self):
        table = table_from_rows("t", [("a", DataType.INTEGER)], [(1,)])
        clone = table.clone()
        from repro.errors import SchemaError

        with pytest.raises((SchemaError, ConstraintError)):
            clone.insert((1, 2, 3))


class TestCatalogSnapshot:
    def test_snapshot_is_immutable_and_versioned(self):
        catalog = ledger_catalog()
        snap = catalog.snapshot()
        assert isinstance(snap, CatalogSnapshot)
        assert snap.version == catalog.version
        for method, args in [
            ("register", (table_from_rows("x", [("a", DataType.INTEGER)], []),)),
            ("drop", ("ledger",)),
            ("insert_rows", ("ledger", [(3, 0)])),
        ]:
            with pytest.raises(CatalogError, match="read-only snapshot"):
                getattr(snap, method)(*args)

    def test_writes_after_snapshot_are_invisible_to_it(self):
        catalog = ledger_catalog()
        snap = catalog.snapshot()
        catalog.insert_rows("ledger", [(3, 7), (4, -7)])
        catalog.register(
            table_from_rows("extra", [("v", DataType.INTEGER)], [(1,)])
        )
        assert len(catalog.table("ledger").rows) == 4
        assert len(snap.table("ledger").rows) == 2
        with pytest.raises(CatalogError):
            snap.table("extra")
        # And the snapshot taken now sees the new state.
        assert len(catalog.snapshot().table("ledger").rows) == 4

    def test_insert_rows_clones_only_frozen_versions(self):
        catalog = ledger_catalog()
        live = catalog.table("ledger")
        catalog.insert_rows("ledger", [(3, 0)])
        # No snapshot yet: the write lands in place, no version churn.
        assert catalog.table("ledger") is live
        catalog.snapshot()
        catalog.insert_rows("ledger", [(4, 0)])
        swapped = catalog.table("ledger")
        assert swapped is not live
        assert len(live.rows) == 3  # the frozen version never moved
        assert len(swapped.rows) == 4

    def test_insert_rows_validates_before_touching_anything(self):
        catalog = ledger_catalog()
        snap = catalog.snapshot()
        with pytest.raises(Exception):
            catalog.insert_rows("ledger", [(3, 0), ("bad", "row", 1)])
        # The failed batch left no partial state behind.
        assert len(catalog.table("ledger").rows) == 2
        assert len(snap.table("ledger").rows) == 2

    def test_insert_rows_invalidates_statistics(self):
        catalog = ledger_catalog()
        before = catalog.statistics("ledger").row_count
        catalog.insert_rows("ledger", [(3, 1), (4, -1)])
        assert catalog.statistics("ledger").row_count == before + 2

    def test_replace_table_swaps_a_version(self):
        catalog = ledger_catalog()
        version = catalog.version
        snap = catalog.snapshot()
        replacement = catalog.table("ledger").clone()
        replacement.insert((3, 0))
        catalog.register(replacement, replace=True)
        assert catalog.table("ledger") is replacement
        assert catalog.version == version + 1
        assert len(snap.table("ledger").rows) == 2  # the pinned version
        with pytest.raises(CatalogError, match="already exists"):
            catalog.register(catalog.table("ledger").clone())

    def test_mutations_bump_version(self):
        catalog = ledger_catalog()
        v0 = catalog.version
        catalog.register(
            table_from_rows("extra", [("v", DataType.INTEGER)], [])
        )
        catalog.insert_rows("extra", [(1,)])
        catalog.drop("extra")
        assert catalog.version == v0 + 3


class TestConcurrentAccess:
    def test_lazy_index_build_race_returns_consistent_state(self):
        # Many threads trigger the same lazy index build on a frozen
        # version at once; the atomic state publication must hand every
        # one of them a complete (buckets + sorted arrays) state.
        table = table_from_rows(
            "t",
            [("k", DataType.INTEGER), ("v", DataType.INTEGER)],
            [(i % 10, i) for i in range(200)],
        )
        index = table.create_index(["k"])
        table.freeze()
        errors: list[str] = []
        barrier = threading.Barrier(8, timeout=10.0)

        def probe():
            barrier.wait()
            for key in range(10):
                rows = list(index.lookup((key,)))
                if len(rows) != 20:
                    errors.append(f"key {key}: {len(rows)} rows")
                if index.distinct_key_count() != 10:
                    errors.append("distinct count torn")

        threads = [threading.Thread(target=probe) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert errors == []

    def test_writers_and_snapshot_readers_interleave_safely(self):
        catalog = ledger_catalog()
        stop = threading.Event()
        torn: list[int] = []

        def reader():
            while not stop.is_set():
                snap = catalog.snapshot()
                rows = snap.table("ledger").rows
                total = sum(amount for _, amount in rows)
                if total != 0 or len(rows) % 2 != 0:
                    torn.append(total)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for i in range(50):
            base = 10 + 2 * i
            catalog.insert_rows(
                "ledger", [(base, i + 1), (base + 1, -(i + 1))]
            )
        stop.set()
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert torn == []
        assert len(catalog.table("ledger").rows) == 2 + 100
