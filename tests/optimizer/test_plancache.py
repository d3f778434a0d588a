"""Unit tests for the plan cache: LRU mechanics, keying, invalidation,
prepared statements, and parameter substitution.

The contract as a whole — a cached run is the uncached run, and hits +
misses = runs — is one model in :mod:`repro.fuzz.plancache`, driven by
the seeded ``plancache`` sweep and by the state machine in
``tests/properties/test_plancache_model.py``.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import BindError, PlanError, ReproError
from repro.optimizer.plancache import (
    CachedPlan,
    PlanCache,
    PlanKey,
    collect_parameters,
    substitute_parameters,
)
from repro.optimizer.planner import PlannerOptions
from repro.storage import DataType
from tests.conftest import ALL_RULES_OFF


def make_entry(digest: str, version: int = 0) -> CachedPlan:
    # LRU/accounting tests never execute the entry, so placeholder
    # template/report objects are fine.
    key = PlanKey(digest, type_tags=("int",), catalog_version=version, options_tag="")
    return CachedPlan(key=key, template=None, report=None)


def small_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("id", DataType.INTEGER), ("grp", DataType.INTEGER),
         ("v", DataType.FLOAT)],
        [(i, i % 3, float(i)) for i in range(30)],
        primary_key=["id"],
    )
    return db


class TestLruMechanics:
    def test_capacity_validation(self):
        with pytest.raises(PlanError):
            PlanCache(capacity=0)

    def test_store_and_lookup(self):
        cache = PlanCache(capacity=4)
        entry = make_entry("a")
        assert cache.store(entry) is entry
        assert cache.lookup(entry.key) is entry
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 0

    def test_miss_is_counted(self):
        cache = PlanCache()
        assert cache.lookup(make_entry("nope").key) is None
        assert cache.stats()["misses"] == 1

    def test_eviction_drops_least_recently_used(self):
        cache = PlanCache(capacity=2)
        a, b, c = make_entry("a"), make_entry("b"), make_entry("c")
        cache.store(a)
        cache.store(b)
        cache.lookup(a.key)  # refresh a: b is now the LRU victim
        cache.store(c)
        assert cache.lookup(a.key) is a
        assert cache.lookup(b.key) is None
        assert cache.lookup(c.key) is c
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 2

    def test_store_race_first_publisher_wins(self):
        cache = PlanCache()
        first, second = make_entry("a"), make_entry("a")
        assert cache.store(first) is first
        # A racing thread that also built the entry adopts the winner's
        # object, so hit accounting stays on one CachedPlan.
        assert cache.store(second) is first
        assert len(cache) == 1

    def test_stale_versions_swept_on_store(self):
        cache = PlanCache()
        cache.store(make_entry("old", version=1))
        cache.store(make_entry("new", version=2))
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 1

    def test_older_store_keeps_newer_entries(self):
        # An old snapshot's miss stores at its version; that store must
        # not sweep the entries of the current, newer version.
        cache = PlanCache()
        cache.store(make_entry("new", version=2))
        cache.store(make_entry("old", version=1))  # an old snapshot's miss
        assert len(cache) == 2
        assert cache.stats()["invalidations"] == 0
        assert cache.clear() == 2
        assert cache.stats()["invalidations"] == 2


class TestKeyingThroughDatabase:
    def test_same_shape_different_literals_share_entry(self):
        db = small_db()
        db.sql("select id from t where v < 5.0")
        db.sql("select id from t where v < 25.0")
        stats = db.plan_cache.stats()
        assert stats == {**stats, "misses": 1, "hits": 1, "size": 1}

    def test_different_types_get_different_entries(self):
        db = small_db()
        db.sql("select id from t where v < 5.0")
        db.sql("select id from t where v < 5")  # int, not float
        assert db.plan_cache.stats()["misses"] == 2
        assert len(db.plan_cache) == 2

    def test_logical_options_partition_the_key(self):
        db = small_db()
        db.sql("select id from t where v < 5.0")
        db.sql(
            "select id from t where v < 5.0",
            planner_options=PlannerOptions(
                disabled_rules=("select_pushdown",)
            ),
        )
        assert db.plan_cache.stats()["misses"] == 2

    def test_physical_knobs_share_the_key(self):
        db = small_db()
        db.sql("select id, v from t where v < 5.0")
        hit = db.sql(
            "select id, v from t where v < 5.0",
            planner_options=PlannerOptions(
                vector_batch_size=3, use_indexes=False
            ),
        )
        assert hit.plan_cache["source"] == "hit"
        assert len(db.plan_cache) == 1

    def test_rule_free_runs_go_through_the_cache(self):
        # The bound plan as written is one more key, not a way around
        # the cache: only ``plan_cache=None`` runs uncached.
        db = small_db()
        sources = [
            db.sql("select id from t", planner_options=ALL_RULES_OFF).plan_cache
            for _ in range(2)
        ]
        assert [info["source"] for info in sources] == ["miss", "hit"]

    def test_catalog_mutation_invalidates(self):
        db = small_db()
        db.sql("select id from t where v < 5.0")
        db.catalog.insert_rows("t", [(100, 1, 100.0)])
        result = db.sql("select id from t where v < 5.0")
        assert result.plan_cache["source"] == "miss"
        # The old-version entry was swept when the new one was stored.
        assert len(db.plan_cache) == 1
        assert db.plan_cache.stats()["invalidations"] == 1

    def test_snapshot_shares_the_cache(self):
        db = small_db()
        db.sql("select id from t where v < 5.0")
        snap = db.snapshot()
        assert snap.plan_cache is db.plan_cache
        hit = snap.sql("select id from t where v < 9.0")
        assert hit.plan_cache["source"] == "hit"


class TestExplicitMarkers:
    def test_markers_require_params(self):
        db = small_db()
        with pytest.raises(BindError):
            db.sql("select id from t where v < $1")

    def test_wrong_arity_rejected(self):
        db = small_db()
        with pytest.raises(BindError):
            db.sql("select id from t where v < $1", params=[1.0, 2.0])

    def test_stray_params_rejected(self):
        db = small_db()
        with pytest.raises(BindError):
            db.sql("select id from t", params=[1.0])

    def test_sparse_markers_rejected(self):
        db = small_db()
        with pytest.raises(ReproError):
            db.sql("select id from t where v < $2", params=[1.0, 2.0])

    def test_markers_and_literal_text_share_an_entry(self):
        db = small_db()
        cold = db.sql("select id from t where v < 5.0")
        hit = db.sql("select id from t where v < $1", params=[5.0])
        assert hit.plan_cache["source"] == "hit"
        assert hit.plan_cache["key"] == cold.plan_cache["key"]
        assert sorted(hit.rows) == sorted(cold.rows)


class TestPrepared:
    def test_extraction_mode_defaults_to_original_literals(self):
        db = small_db()
        prepared = db.prepare("select id from t where v < 5.0")
        assert prepared.parameter_count == 1
        default = prepared.execute()
        rebound = prepared.execute([5.0])
        assert sorted(default.rows) == sorted(rebound.rows)
        assert rebound.plan_cache["source"] == "hit"

    def test_explicit_mode_requires_params(self):
        db = small_db()
        prepared = db.prepare("select id from t where v < $1")
        with pytest.raises(BindError):
            prepared.execute()
        with pytest.raises(BindError):
            prepared.execute([1.0, 2.0])
        assert len(prepared.execute([5.0]).rows) == 5

    def test_no_literal_query_prepares_fine(self):
        db = small_db()
        prepared = db.prepare("select count(*) from t")
        assert prepared.parameter_count == 0
        assert prepared.execute().rows == [(30,)]


class TestSubstitution:
    def test_substitute_and_collect(self):
        db = small_db()
        db.sql("select id from t where v < 5.0 and grp = 1")
        entry = db.plan_cache.entries()[0]
        markers = collect_parameters(entry.template)
        assert sorted(m.index for m in markers) == [0, 1]
        concrete = substitute_parameters(entry.template, (9.0, 2))
        assert not collect_parameters(concrete)

    def test_missing_values_raise(self):
        db = small_db()
        db.sql("select id from t where v < 5.0 and grp = 1")
        entry = db.plan_cache.entries()[0]
        with pytest.raises(PlanError):
            substitute_parameters(entry.template, (9.0,))



def aggregate_db(**options) -> Database:
    db = Database(**options)
    db.create_table(
        "t",
        [("a", DataType.INTEGER), ("b", DataType.INTEGER)],
        [(1, 1), (3, 2), (3, 1)],
    )
    return db


class TestAggregateArgumentsWithLiterals:
    """An aggregate whose argument holds a literal: the literal becomes a
    template marker, so substituting it rebuilds the aggregate call, which
    must keep the alias the projection above reads."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select sum(a * 2) as total from t",
            "select b, sum(a + 1) as s from t group by b",
            "select b, count(*) from t group by b having sum(a * 2) > 1",
            # Equal literals are two markers in the template, so the
            # literal query must not merge the two aggregates either.
            "select sum(a * 2) as x, sum(a * 2) as y from t",
        ],
    )
    def test_cached_run_is_the_uncached_run(self, sql):
        cached, uncached = aggregate_db(), aggregate_db(plan_cache=None)
        expected = uncached.sql(sql)
        for _ in range(2):  # a miss, then a hit
            result = cached.sql(sql)
            assert sorted(result.rows) == sorted(expected.rows)
            assert result.schema.names() == expected.schema.names()
            assert result.logical_plan == expected.logical_plan
        assert cached.plan_cache.stats()["hits"] == 1
