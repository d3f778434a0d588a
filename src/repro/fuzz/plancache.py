"""Plan-cache differential fuzzing: cold vs hot vs re-parameterized.

For every generated case the same query runs three ways against one
cache-enabled database, each checked against a cache-free reference
database built from the same seeded data:

* **cold** — first arrival, must miss the cache and produce exactly the
  rows/counters/metrics of the uncached reference run;
* **hot** — second arrival, must hit the cache and reproduce the cold
  run byte for byte;
* **re-parameterized** — the same query shape with fresh literals (same
  types, so the cache key is unchanged), must hit the cache and produce
  the row multiset of an uncached run of the new text. When the cached
  template lowers to the same physical plan the uncached run chooses,
  counters and metrics must match too (they may legitimately differ
  when value-dependent costing picks another plan for the new values —
  that is the adaptive re-plan machinery's department, not a bug).

The ``plancache`` profile of the one driver (:mod:`repro.fuzz.driver`): a
failure has kind ``plancache`` and the stage that diverged as its
configuration; its case is a SQL case, so it is minimized with the SQL
candidates and saved as a replayable SQL-corpus reproducer.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.api import Database, QueryResult
from repro.fuzz.corpus import save_case
from repro.fuzz.driver import Failure, Profile
from repro.fuzz.generator import STRING_VOCAB, FuzzCase, generate_case
from repro.fuzz.shrink import sql_candidates
from repro.sql import ast as A
from repro.sql.normalize import _rewrite_statement
from repro.sql.printer import print_query


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

    def visit(node: A.AstExpression) -> A.AstExpression:
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

    return _rewrite_statement(query, visit)


def plan_signature(result: QueryResult) -> str:
    """Structural identity of the executed physical plan."""
    lines: list[str] = []

    def walk(node, depth: int) -> None:
        lines.append("  " * depth + node.label())
        for child in node.children():
            walk(child, depth + 1)

    walk(result.physical_plan, 0)
    return "\n".join(lines)


def _normalized(rows: list[tuple]) -> list[tuple]:
    return sorted(rows, key=repr)


def _diff(kind: str, cached: QueryResult, reference: QueryResult) -> str | None:
    """Compare a cached run against its uncached reference."""
    if _normalized(cached.rows) != _normalized(reference.rows):
        return (
            f"{kind}: rows diverge (cached {len(cached.rows)}, "
            f"reference {len(reference.rows)})"
        )
    if cached.counters.snapshot() != reference.counters.snapshot():
        return (
            f"{kind}: work counters diverge\n"
            f"cached:    {cached.counters.snapshot()}\n"
            f"reference: {reference.counters.snapshot()}"
        )
    if cached.metrics.snapshot() != reference.metrics.snapshot():
        return f"{kind}: per-operator metrics diverge"
    return None


def check_case(case: FuzzCase, tally: Counter) -> Failure | None:
    """Run one case cold/hot/re-parameterized; None means all agreed."""
    sql = case.sql
    cached_db = case.db.build()  # default: plan cache on
    reference_db = case.db.build()
    reference_db.plan_cache = None  # the uncached twin

    def run(db: Database, text: str) -> QueryResult:
        return db.sql(text, collect_metrics=True)

    def failed(stage: str, text: str, detail: str) -> Failure:
        return Failure(
            case.seed, "plancache", f"{detail}\n  query: {text}", case, stage
        )

    reference = run(reference_db, sql)
    cold = run(cached_db, sql)
    if cold.plan_cache is None or cold.plan_cache["source"] != "miss":
        return failed(
            "cold", sql, f"expected a cache miss, got {cold.plan_cache!r}"
        )
    problem = _diff("cold-vs-uncached", cold, reference)
    if problem:
        return failed("cold", sql, problem)

    hot = run(cached_db, sql)
    if hot.plan_cache is None or hot.plan_cache["source"] != "hit":
        return failed("hot", sql, f"expected a cache hit, got {hot.plan_cache!r}")
    problem = _diff("hot-vs-cold", hot, cold)
    if problem:
        return failed("hot", sql, problem)

    mutation_rng = random.Random(case.seed ^ 0x5EED)
    new_sql = print_query(fresh_literals(case.query, mutation_rng))
    warm = run(cached_db, new_sql)
    if warm.plan_cache is None or warm.plan_cache["source"] != "hit":
        return failed(
            "reparam",
            new_sql,
            f"expected a cache hit for the re-parameterized text, got "
            f"{warm.plan_cache!r}",
        )
    warm_reference = run(reference_db, new_sql)
    if _normalized(warm.rows) != _normalized(warm_reference.rows):
        return failed(
            "reparam",
            new_sql,
            f"rows diverge (cached {len(warm.rows)}, reference "
            f"{len(warm_reference.rows)})",
        )
    if plan_signature(warm) == plan_signature(warm_reference):
        problem = _diff("reparam-vs-uncached", warm, warm_reference)
        if problem:
            return failed("reparam", new_sql, problem)
    tally["checked"] += 1  # executed all three modes and agreed
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
