"""Unit tests for the plan cache: LRU mechanics, keying, invalidation,
prepared statements, and q-error-driven re-optimization.

The adaptive re-plan test is the headline: a prepared GApply query planned
at a selective threshold drifts when executed at an unselective one, the
q-error feedback trips, and the re-optimized entry carries a estimate
that matches the new parameter regime far better than the stale one.
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
    q_error,
    substitute_parameters,
)
from repro.optimizer.planner import PlannerOptions
from repro.storage import DataType


def make_key(digest: str, version: int = 0) -> PlanKey:
    return PlanKey(
        digest=digest, type_tags=("int",), catalog_version=version,
        options_tag="",
    )


def make_entry(digest: str, version: int = 0) -> CachedPlan:
    # LRU/accounting tests never execute the entry, so placeholder
    # statement/template/report objects are fine.
    return CachedPlan(
        key=make_key(digest, version),
        statement=None,
        template=None,
        report=None,
        param_count=1,
        est_rows=10.0,
        qerror_threshold=4.0,
    )


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


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10)

    def test_zero_actual_is_smoothed(self):
        assert q_error(80, 0) == 81.0

    def test_overestimate_factor(self):
        assert q_error(399, 99) == 4.0


class TestLruMechanics:
    def test_capacity_validation(self):
        with pytest.raises(PlanError):
            PlanCache(capacity=0)
        with pytest.raises(PlanError):
            PlanCache(qerror_threshold=0.5)

    def test_store_and_lookup(self):
        cache = PlanCache(capacity=4)
        entry = make_entry("a")
        assert cache.store(entry) is entry
        assert cache.lookup(entry.key) is entry
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 0

    def test_miss_is_counted(self):
        cache = PlanCache()
        assert cache.lookup(make_key("nope")) is None
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
        # object, so feedback accounting stays on one CachedPlan.
        assert cache.store(second) is first
        assert len(cache) == 1

    def test_stale_versions_swept_on_store(self):
        cache = PlanCache()
        cache.store(make_entry("old", version=1))
        cache.store(make_entry("new", version=2))
        assert len(cache) == 1
        assert cache.stats()["invalidations"] == 1

    def test_invalidate_stale_and_clear(self):
        cache = PlanCache()
        cache.store(make_entry("a", version=1))
        assert cache.invalidate_stale(current_version=1) == 0
        assert cache.invalidate_stale(current_version=2) == 1
        cache.store(make_entry("b", version=2))
        assert cache.clear() == 1
        assert cache.stats()["invalidations"] == 2


class TestReplaceAccounting:
    def test_replace_inherits_history_and_doubles_threshold(self):
        cache = PlanCache()
        old = make_entry("a")
        cache.store(old)
        cache.lookup(old.key)
        cache.record_execution(old, actual_rows=10)
        new = make_entry("a")
        swapped = cache.replace(old, new)
        assert swapped is new
        assert new.executions == old.executions == 1
        assert new.hits == old.hits == 1
        assert new.replans == 1
        assert new.qerror_threshold == 8.0
        assert cache.lookup(old.key) is new
        assert cache.stats()["replans"] == 1

    def test_record_execution_flags_drift(self):
        cache = PlanCache(qerror_threshold=4.0)
        entry = make_entry("a")
        assert not cache.record_execution(entry, actual_rows=10)
        assert cache.record_execution(entry, actual_rows=1000)
        assert entry.max_q_error > 4.0
        assert entry.last_actual_rows == 1000
        assert entry.executions == 2


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
                vector_batch_size=3, use_indexes=False, prefer_hash_join=False
            ),
        )
        assert hit.plan_cache["source"] == "hit"
        assert len(db.plan_cache) == 1

    def test_unoptimized_runs_bypass(self):
        db = small_db()
        db.sql("select id from t", optimize=False)
        db.sql("select id from t", use_plan_cache=False)
        stats = db.plan_cache.stats()
        assert stats["bypass"] == 2
        assert stats["misses"] == 0

    def test_use_plan_cache_demands_a_cache(self):
        db = Database(plan_cache=None)
        db.create_table("t", [("id", DataType.INTEGER)], [(1,)])
        with pytest.raises(PlanError):
            db.sql("select id from t", use_plan_cache=True)

    def test_use_plan_cache_refuses_an_unoptimized_run(self):
        # True *demands* the cache, which only holds optimized plans; the
        # pair used to be recorded as a bypass and run uncached.
        db = small_db()
        with pytest.raises(PlanError, match="optimize=False"):
            db.sql("select id from t", use_plan_cache=True, optimize=False)
        prepared = db.prepare("select id from t where v < 5.0")
        with pytest.raises(PlanError, match="optimize=False"):
            prepared.execute(use_plan_cache=True, optimize=False)
        assert db.plan_cache.stats()["bypass"] == 0

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


class TestQErrorReplan:
    """A drifting parameter regime triggers re-optimization (the paper's
    group-selection queries are exactly the shape whose estimates are
    threshold-sensitive; see ``repro.workloads.rule_queries``)."""

    SQL = """
        select gapply(
            select * from g
            where exists (select ps_suppkey from g where p_retailprice > $1)
        )
        from partsupp, part
        where ps_partkey = p_partkey
        group by ps_suppkey : g
    """

    def test_replan_produces_better_estimated_plan(self, tpch_catalog):
        db = Database(tpch_catalog)
        prepared = db.prepare(self.SQL)

        # Cold at a threshold whose estimate matches the actuals: the
        # entry settles in without tripping feedback.
        cold = prepared.execute([900.0])
        entry = db.plan_cache.entries()[0]
        stale_est = entry.est_rows
        assert q_error(stale_est, len(cold.rows)) <= entry.qerror_threshold
        assert db.plan_cache.stats()["replans"] == 0

        # Same shape, unselective regime: far fewer groups qualify than
        # the cached (seed-900) estimate promises -> drift past the
        # threshold -> re-optimize with 1200.0 as the seed.
        drifted = prepared.execute([1200.0])
        actual = len(drifted.rows)
        assert drifted.plan_cache["source"] == "hit"
        assert drifted.plan_cache.get("replanned") is True
        assert db.plan_cache.stats()["replans"] == 1

        replanned = db.plan_cache.entries()[0]
        assert replanned is not entry
        assert replanned.replans == 1
        # The optimizer re-ran against the drifted seeds and produced a
        # differently-estimated plan (the template *shape* may coincide —
        # markers print identically — but the plan the cache now serves
        # carries the new regime's cardinality profile end to end).
        assert replanned.est_rows != stale_est
        assert replanned.report.best_estimate != entry.report.best_estimate
        # The whole point: the re-planned entry's estimate fits the new
        # regime much better than the stale one did.
        assert q_error(replanned.est_rows, actual) < q_error(
            stale_est, actual
        )
        # Backoff: the swapped entry re-plans less eagerly.
        assert replanned.qerror_threshold == 2 * db.plan_cache.qerror_threshold

        # The replanned entry keeps serving this shape.
        again = prepared.execute([1200.0])
        assert again.plan_cache["source"] == "hit"
        assert sorted(again.rows) == sorted(drifted.rows)

    def test_backoff_threshold_survives_catalog_mutation(self, tpch_catalog):
        # DESIGN §13.4 regression: a catalog-version bump rebuilds the
        # entry under a new key, and the rebuilt entry used to reset to
        # the default q-error threshold — forgetting the backoff and
        # re-entering the replan churn the backoff had just damped. The
        # cache now remembers the backed-off threshold per plan *shape*
        # (digest + type tags + options, version-independent) and seeds
        # rebuilds from it.
        db = Database(tpch_catalog)
        prepared = db.prepare(self.SQL)
        prepared.execute([900.0])
        prepared.execute([1200.0])  # drift -> replan -> doubled threshold
        doubled = 2 * db.plan_cache.qerror_threshold
        assert db.plan_cache.entries()[0].qerror_threshold == doubled

        # Mutate the workload's catalog (create + drop leaves the shared
        # session fixture's contents untouched; the version still bumps).
        db.create_table("plancache_scratch", [("k", DataType.INTEGER)], [])
        db.catalog.drop("plancache_scratch")
        rebuilt = prepared.execute([1200.0])
        assert rebuilt.plan_cache["source"] == "miss"  # version changed
        entry = next(
            e
            for e in db.plan_cache.entries()
            if e.key.catalog_version == db.catalog.version
        )
        # The rebuilt entry starts from the remembered backoff, never from
        # the default. (It may legitimately double again if this regime
        # drifts once more — what it must never do is restart at 4.0 and
        # re-enter the churn.)
        assert entry.qerror_threshold >= doubled
        assert db.plan_cache.seed_threshold(entry.key) >= doubled
        # And the memory does not leak across clear(): a fresh build of
        # the same shape reverts to the default threshold.
        db.plan_cache.clear()
        fresh = db.prepare(self.SQL)
        fresh.execute([900.0])
        newest = max(
            db.plan_cache.entries(), key=lambda e: e.key.catalog_version
        )
        assert newest.qerror_threshold == db.plan_cache.qerror_threshold

    def test_replan_rows_identical_to_uncached(self, tpch_catalog):
        cached_db = Database(tpch_catalog)
        plain_db = Database(tpch_catalog, plan_cache=None)
        prepared = cached_db.prepare(self.SQL)
        prepared.execute([900.0])
        for value in (1200.0, 900.0):
            hit = prepared.execute([value])
            reference = plain_db.sql(self.SQL, params=[value])
            assert sorted(hit.rows, key=repr) == sorted(
                reference.rows, key=repr
            )
