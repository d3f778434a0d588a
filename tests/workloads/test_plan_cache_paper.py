"""Cache parity on the paper workload: all 10 formulations, compiled and reference.

The acceptance bar for the plan cache is that the cached execution path
is *invisible* — byte-identical rows, work counters, and per-operator
metrics versus a cache-free database — on exactly the queries the paper
measures. ``BindParameter`` seeding makes template optimization
bit-for-bit the literal query's optimization, so any divergence here is
a substitution or lowering bug, not tuning noise.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.execution.context import ExecutionContext
from repro.fuzz.oracle import reference_rows
from repro.observe.__main__ import formulations
from repro.observe.metrics import MetricsRegistry

#: How the lowered plan is run: ``vector`` is ``Database.sql`` (the
#: compiled batch nodes), ``volcano`` the row-iterator reference over the
#: same lowering — the cache sits in front of both.
PATHS = ("volcano", "vector")

FORMULATIONS = formulations(None)


def run(db: Database, sql: str, path: str):
    """(sorted rows, work counters, per-operator metrics) of one run."""
    if path == "vector":
        result = db.sql(sql, collect_metrics=True)
        rows, counters, metrics = result.rows, result.counters, result.metrics
    else:
        ctx = ExecutionContext(metrics=MetricsRegistry())
        rows = list(reference_rows(db, sql, ctx))
        counters, metrics = ctx.counters, ctx.metrics
    return sorted(rows, key=repr), counters.snapshot(), metrics.snapshot()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize(
    "label,sql", FORMULATIONS, ids=[label for label, _ in FORMULATIONS]
)
def test_cached_execution_is_invisible(tpch_catalog, label, sql, path):
    cached_db = Database(tpch_catalog)
    plain_db = Database(tpch_catalog, plan_cache=None)

    reference = run(plain_db, sql, path)
    # That the first run misses and the second hits is the model's check.
    cold = run(cached_db, sql, path)
    hot = run(cached_db, sql, path)

    for kind, outcome in (("cold", cold), ("hot", hot)):
        for what, got, expected in zip(
            ("rows", "work counters", "per-operator metrics"),
            outcome, reference,
        ):
            assert got == expected, (
                f"{label}/{path}: {kind} {what} diverge from uncached"
            )
