"""The plan-cache contract's second driver: a Hypothesis state machine.

Every rule is one ``step`` of :mod:`repro.fuzz.plancache` — home of the
model, which the seeded ``plancache`` sweep drives too — over one small
table and three query shapes. The cache holds two entries, so the drawn
keys evict, and snapshots pinned before a write make old versions miss.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule, run_state_machine_as_test

from repro.api import Database
from repro.fuzz.plancache import CAPACITY, EVENTS, KINDS, RULE_SETS, CacheModel
from repro.fuzz.plancache import fresh_literals, step
from repro.optimizer.plancache import PlanCache
from repro.sql.parser import parse
from repro.sql.printer import print_query
from repro.storage import DataType

COLUMNS = [("id", DataType.INTEGER), ("grp", DataType.INTEGER), ("v", DataType.FLOAT)]
QUERIES = [
    parse("select id from t where v < 5.0"),
    parse("select grp, count(*) from t where id > 3 group by grp"),
    parse("select gapply(select count(*) from g where v > 2.5) from t group by grp : g"),
]

picks = st.integers(0, 1000)
queries = st.sampled_from(QUERIES)
rule_sets = st.sampled_from(RULE_SETS)


def fresh(query, seed: int) -> str:
    return print_query(fresh_literals(query, random.Random(seed)))


class CachedDatabase(RuleBasedStateMachine):
    #: The action kinds and model events every example saw; one per run.
    seen: Counter

    def __init__(self) -> None:
        super().__init__()
        db = Database(plan_cache=PlanCache(CAPACITY))
        db.create_table("t", COLUMNS, [(i, i % 3, float(i)) for i in range(12)])
        #: (database, uncached twin) pairs: the live one, then snapshots.
        self.handles = [(db, Database(db.catalog, plan_cache=None))]
        self.live = self.handles[0]
        self.prepared: list[tuple] = []
        self.model = CacheModel(CAPACITY)

    def teardown(self) -> None:
        self.seen.update(self.model.seen)

    def _step(self, handle, *action):
        return step(*handle, self.model, action)

    @rule(pick=picks, query=queries, seed=picks, rules=rule_sets)
    def sql(self, pick, query, seed, rules):
        handle = self.handles[pick % len(self.handles)]
        self._step(handle, "sql", fresh(query, seed), rules)

    @rule(pick=picks, query=queries)
    def prepare(self, pick, query):
        handle = self.handles[pick % len(self.handles)]
        self.prepared.append((handle, query, self._step(handle, "prepare", print_query(query))))

    @precondition(lambda self: self.prepared)
    @rule(pick=picks, seed=picks, rules=rule_sets)
    def execute(self, pick, seed, rules):
        handle, query, prepared = self.prepared[pick % len(self.prepared)]
        self._step(handle, "execute", fresh(query, seed), rules, prepared)

    @rule()
    def snapshot(self):
        self.handles.append(self._step(self.live, "snapshot"))

    @rule(n=st.integers(1, 3))
    def insert(self, n):
        first = 100 * self.live[0].catalog.version  # fresh ids
        self._step(self.live, "insert", "t", [(first + i, i % 3, 0.5 * i) for i in range(n)])

    @rule()
    def create_or_drop(self):
        exists = "scratch" in self.live[0].catalog
        self._step(self.live, "drop" if exists else "create", "scratch")

    @rule()
    def clear(self):
        self._step(self.live, "clear")

    @rule(seed=picks)
    def old_snapshot_miss(self, seed):
        # A, pin, write, A again, B on the pinned snapshot, A: the
        # snapshot's miss must not sweep the plan A has now.
        a, b = fresh(QUERIES[0], seed), fresh(QUERIES[1], seed)
        self._step(self.live, "sql", a, ())
        old = self._step(self.live, "snapshot")
        self.insert(1)
        for handle, text in ((self.live, a), (old, b), (self.live, a)):
            self._step(handle, "sql", text, ())


def test_cached_runs_are_the_uncached_runs():
    seen: Counter = Counter()
    machine = type("CachedDatabase", (CachedDatabase,), {"seen": seen})
    run_state_machine_as_test(
        machine,
        settings=settings(max_examples=40, stateful_step_count=30, deadline=None),
    )
    assert {*KINDS, *EVENTS} <= seen.keys()
