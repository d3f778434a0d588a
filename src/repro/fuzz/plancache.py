"""The plan-cache contract as one model, and the seeded ``plancache``
profile that drives it.

The contract: **a cached run is the uncached run, and hits + misses =
runs.** :class:`CacheModel` is the cache as plain data, and :func:`step`
runs one action through the public :class:`~repro.api.Database` surface
and holds the outcome to the model. Two drivers share them: the
Hypothesis state machine in ``tests/properties/test_plancache_model.py``,
one :func:`step` per rule, and the seeded profile below, which draws
each action online from one generated case. A failure has kind
``plancache`` and the diverging action's kind as its configuration; its
case is a SQL case, so it is minimized with the SQL candidates and saved
as a replayable SQL-corpus reproducer.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Any

from repro.algebra.tree import rewrite
from repro.api import Database, Prepared, QueryResult
from repro.fuzz.corpus import save_case
from repro.fuzz.driver import Failure, Profile
from repro.fuzz.generator import (
    STRING_VOCAB,
    FuzzCase,
    expression_aggregates,
    generate_case,
)
from repro.fuzz.shrink import sql_candidates
from repro.optimizer.plancache import PlanCache, text_digest
from repro.optimizer.planner import PlannerOptions
from repro.sql import ast as A
from repro.sql.normalize import parameterize, type_signature
from repro.sql.parser import parse
from repro.sql.printer import print_query, print_statement
from repro.storage import DataType

#: Every action kind :func:`step` takes, and the model events a driver
#: should reach: an LRU eviction, a sweep of older versions, and a miss
#: on a snapshot older than the live catalog.
KINDS = ("sql", "prepare", "execute", "snapshot", "insert", "create",
         "drop", "clear")
EVENTS = ("eviction", "sweep", "snapshot-miss")
#: The cache size both drivers use: small, so the drawn keys evict.
CAPACITY = 2
#: Rule sets a run may disable; each is another options tag in the key.
RULE_SETS = ((), ("select_pushdown",), ("gapply_to_groupby",))

#: How :func:`step` runs each write; all go to the live database.
_WRITES = {
    "insert": lambda db, table, rows: db.catalog.insert_rows(table, rows),
    "create": lambda db, table: db.create_table(table, [("k", DataType.INTEGER)]),
    "drop": lambda db, table: db.catalog.drop(table),
}


def fresh_literals(query: A.AstQuery, rng: random.Random) -> A.AstQuery:
    """Same query shape, new literal values of the same types.

    Type-preserving by construction: the plan-cache key includes the
    parameter type signature, so only a same-type rewrite is guaranteed
    to hit the cached entry. Sign-preserving too: ``-2`` prints as
    ``-2``, which re-parses as unary minus over the literal ``2`` — a
    different query *shape* — so a mutation may not cross zero. Values
    stay inside the generator's domains (small ints, quarter-step
    floats, the string vocabulary) so the engine/SQLite semantic gaps
    the generator steers around stay closed.
    """

    def visit(node: A.AstNode) -> A.AstNode:
        if not isinstance(node, A.AstLiteral):
            return node
        value = node.value
        if value is None:
            return node
        if isinstance(value, bool):
            return A.AstLiteral(rng.choice((True, False)))
        negative = str(value).startswith("-")
        if isinstance(value, int):
            magnitude = rng.randint(1, 9) if negative else rng.randint(0, 9)
            return A.AstLiteral(-magnitude if negative else magnitude)
        if isinstance(value, float):
            steps = rng.randint(1, 40) if negative else rng.randint(0, 40)
            return A.AstLiteral((-steps if negative else steps) * 0.25)
        if isinstance(value, str):
            return A.AstLiteral(rng.choice(STRING_VOCAB))
        return node

    return rewrite(query, A.AST, visit)


class Divergence(AssertionError):
    """A run, or the cache's counters, left the model."""


class CacheModel:
    """The plan cache as plain data.

    An entry is keyed by (shape digest, type signature, disabled rules,
    catalog version); ``entries`` lists the keys least recently used
    first. A miss stores its key after sweeping every entry of an
    *older* catalog version — a miss on an old snapshot sweeps nothing
    newer — and then evicts from the front down to ``capacity``.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list[tuple] = []
        self.counts = dict.fromkeys(("hits", "misses", "evictions", "invalidations"), 0)
        #: The live catalog's version: the newest any handle shows.
        self.version = 0
        #: The action kinds and :data:`EVENTS` seen, for coverage.
        self.seen: Counter = Counter()

    def run(self, key: tuple) -> str:
        """The source a cached run of ``key`` reports, and its effect."""
        if key in self.entries:
            self.entries.remove(key)
            self.entries.append(key)
            self.counts["hits"] += 1
            return "hit"
        self.counts["misses"] += 1
        kept = [old for old in self.entries if old[-1] >= key[-1]] + [key]
        swept = len(self.entries) + 1 - len(kept)
        evicted = max(0, len(kept) - self.capacity)
        self.entries = kept[evicted:]
        self.counts["invalidations"] += swept
        self.counts["evictions"] += evicted
        happened = (evicted, swept, key[-1] < self.version)
        self.seen.update(e for e, n in zip(EVENTS, happened) if n)
        return "miss"

    def clear(self) -> int:
        dropped = len(self.entries)
        self.counts["invalidations"] += dropped
        self.entries = []
        return dropped

    def stats(self) -> dict[str, int]:
        """What ``PlanCache.stats()`` must report."""
        return {**self.counts, "replans": 0, "size": len(self.entries), "capacity": self.capacity}


def model_key(text: str, rules: tuple[str, ...], version: int) -> tuple:
    """The model's key for running ``text`` with ``rules`` disabled
    against catalog ``version``."""
    shape, values = parameterize(parse(text))
    digest = text_digest(print_statement(shape))
    return digest, type_signature(values), tuple(sorted(rules)), version


def step(db: Database, twin: Database, model: CacheModel, action: tuple) -> Any:
    """Run ``action`` on ``db``, advance ``model``, and check the outcome.

    ``action`` is a kind from :data:`KINDS` and its arguments; a run is
    ``("sql", text, rules)`` or ``("execute", text, rules,
    prepared)``, ``prepared`` a handle ``("prepare", text)`` returned. A
    run's ``plan_cache["source"]`` must be the model's, its rows those of
    the run on ``twin`` (``db``'s catalog, uncached), and so its counters
    and metrics unless fresh literals lowered the first arrival's plan to
    another physical plan. After every action ``PlanCache.stats()`` must
    be the model's; the first failed check raises :class:`Divergence`.
    """
    kind, *args = action
    model.seen[kind] += 1
    result = None
    if kind in _WRITES:
        _WRITES[kind](db, *args)
    elif kind == "snapshot":
        snapshot = db.snapshot()
        result = snapshot, Database(snapshot.catalog, plan_cache=None)
    elif kind == "prepare":
        result = db.prepare(args[0])
    elif kind == "clear":
        if db.plan_cache.clear() != model.clear():
            raise Divergence("clear: dropped another number of entries")
    else:
        text, rules, *prepared = args
        rules_off = PlannerOptions(disabled_rules=rules)
        options = {"collect_metrics": True, "planner_options": rules_off}
        expected = model.run(model_key(text, rules, db.catalog.version))
        if prepared:
            cached = prepared[0].execute(parameterize(parse(text))[1], **options)
        else:
            cached = db.sql(text, **options)
        if cached.plan_cache["source"] != expected:
            raise Divergence(f"{kind}: expected {expected}, got {cached.plan_cache}")
        problem = _diff(kind, cached, twin.sql(text, **options))
        if problem:
            raise Divergence(problem)
    model.version = max(model.version, db.catalog.version)
    stats = db.plan_cache.stats()
    if stats != model.stats():
        raise Divergence(f"{kind}: stats {stats}, model {model.stats()}")
    return result


def _diff(kind: str, cached: QueryResult, reference: QueryResult) -> str | None:
    """Compare a cached run against its uncached twin: the rows always,
    counters and metrics when both lowered to the same physical plan."""
    if sorted(cached.rows, key=repr) != sorted(reference.rows, key=repr):
        return f"{kind}: rows diverge ({len(cached.rows)} vs {len(reference.rows)})"
    if cached.physical_plan.pretty() != reference.physical_plan.pretty():
        return None
    counters = cached.counters.snapshot(), reference.counters.snapshot()
    if counters[0] != counters[1]:
        return f"{kind}: work counters diverge\n%s\n%s" % counters
    if cached.metrics.snapshot() != reference.metrics.snapshot():
        return f"{kind}: per-operator metrics diverge"
    return None


#: Actions per seeded case, and how often each kind is drawn.
ACTIONS = 16
_WEIGHTS = (8, 1, 2, 2, 1, 1, 1, 1)


def _draw(
    rng: random.Random,
    case: FuzzCase,
    handles: list[tuple[Database, Database]],
    prepared: list[tuple[int, Prepared]],
) -> tuple[int, tuple]:
    """The next action for ``case`` and the index of the handle it runs
    on; a kind with nothing to act on falls back to ``sql``."""
    kind = rng.choices(KINDS, _WEIGHTS)[0]
    text = print_query(fresh_literals(case.query, rng))
    rules = rng.choice(RULE_SETS)
    catalog = handles[0][0].catalog
    filled = [t for t in catalog if t.rows]
    if kind == "execute" and prepared:
        index, handle = rng.choice(prepared)
        return index, ("execute", text, rules, handle)
    if kind in ("snapshot", "clear"):
        return 0, (kind,)
    if kind in ("create", "drop"):
        return 0, ("drop" if "scratch" in catalog else "create", "scratch")
    if kind == "insert" and filled:
        table = rng.choice(filled)
        # A copy of a row under a primary key no generated row has.
        row = (1000 + catalog.version, *rng.choice(table.rows)[1:])
        return 0, ("insert", table.name, [row])
    index = rng.randrange(len(handles))
    if kind == "prepare":
        return index, ("prepare", text)
    return index, ("sql", text, rules)


def check_case(case: FuzzCase, tally: Counter) -> Failure | None:
    """Run :data:`ACTIONS` actions drawn for ``case`` through
    :func:`step`; None means every outcome was the model's."""
    db = case.db.build()
    db.plan_cache = PlanCache(CAPACITY)
    handles = [(db, Database(db.catalog, plan_cache=None))]  # live first
    prepared: list[tuple[int, Prepared]] = []
    model = CacheModel(CAPACITY)
    rng = random.Random(case.seed ^ 0x5EED)
    for _ in range(ACTIONS):
        index, action = _draw(rng, case, handles, prepared)
        try:
            result = step(*handles[index], model, action)
        except Divergence as error:
            detail = f"{error}\n  query: {case.sql}"
            return Failure(case.seed, "plancache", detail, case, action[0])
        if action[0] == "snapshot":
            handles.append(result)
        elif action[0] == "prepare":
            prepared.append((index, result))
    tally.update(model.seen)
    tally["checked"] += 1
    if expression_aggregates(case.query):
        tally["expression-aggregates"] += 1
    return None


#: The generator only emits queries the engine accepts, so an error on
#: either path escapes ``check_case`` and the driver records the crash.
PROFILE = Profile(
    "plancache",
    generate_case,
    check_case,
    candidates=sql_candidates,
    save=save_case,
)
