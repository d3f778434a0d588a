"""Concurrent service throughput: queries/sec and tail latency vs client
concurrency, plus the cost of admission control itself.

The :mod:`repro.serve` service puts admission control, snapshot pinning
and per-query governors in front of every read. This suite measures what
that buys and what it costs on the paper's Q1 workload:

* **service overhead** — one client, service path vs calling
  ``Database.sql`` directly: the price of admission + snapshot per query;
* **concurrency scaling** — N client threads hammering the service;
  throughput should hold (Python threads serialize CPU, so the point is
  *no collapse* from lock contention, not speedup) and every result must
  be correct;
* **overload behavior** — more clients than slots with a tiny queue:
  shed queries fail in microseconds with ``ServiceOverloaded`` instead of
  queueing without bound; the shed rate and the p99 of *admitted* queries
  are the numbers to watch (reported in the measurement's metrics dict);
* **plan-cache payoff** — a zipf-skewed stream over a handful of
  parameterized query shapes (the production shape of the paper's
  workload: the same published views re-requested with new parameters),
  measured with the plan cache on vs off; the p50 gap is the per-query
  bind+optimize cost the cache deletes, reported with the hit rate.

Run:  pytest benchmarks/bench_serve_throughput.py --benchmark-only
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.api import Database
from repro.errors import ServiceOverloaded
from repro.serve import Service, ServiceConfig
from repro.workloads.queries import query_by_name

QUERY = "Q1"

#: Client thread counts for the scaling sweep.
CONCURRENCIES = (1, 4, 8)

#: Queries each client issues per measured run.
OPS_PER_CLIENT = 4


def _run_clients(
    service: Service, sql: str, clients: int, ops: int
) -> dict[str, float]:
    """Drive ``clients`` threads x ``ops`` queries; return timing stats."""
    latencies: list[float] = []
    sheds = [0]
    lock = threading.Lock()
    barrier = threading.Barrier(clients)

    def client():
        mine: list[float] = []
        my_sheds = 0
        barrier.wait()
        for _ in range(ops):
            started = time.perf_counter()
            try:
                service.sql(sql)
            except ServiceOverloaded:
                my_sheds += 1
                continue
            mine.append(time.perf_counter() - started)
        with lock:
            latencies.extend(mine)
            sheds[0] += my_sheds

    threads = [threading.Thread(target=client) for _ in range(clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    latencies.sort()
    completed = len(latencies)
    p99 = latencies[min(completed - 1, int(completed * 0.99))] if completed else 0.0
    return {
        "elapsed": elapsed,
        "completed": completed,
        "shed": sheds[0],
        "p99": p99,
        "throughput": completed / elapsed if elapsed else 0.0,
    }


# ----------------------------------------------------------------------
# Skewed query-shape workload (plan-cache on vs off)
# ----------------------------------------------------------------------

#: Parameterized shapes for the skew workload: explicit ``$1`` markers
#: with a value generator, so every arrival is a *different text-level
#: query* of a cached shape. ``None`` marks parameter-free shapes.
SHAPE_WORKLOAD: tuple[tuple[str, object], ...] = (
    (
        "select p_name, p_retailprice from part where p_retailprice < $1",
        lambda rng: [round(rng.uniform(900.0, 2100.0), 2)],
    ),
    (
        "select count(*) from partsupp where ps_availqty < $1",
        lambda rng: [rng.randrange(1, 10000)],
    ),
    (
        "select s_name, s_acctbal from supplier where s_acctbal > $1",
        lambda rng: [round(rng.uniform(-900.0, 9000.0), 2)],
    ),
    (
        "select p_brand, count(*) from part where p_size < $1 "
        "group by p_brand",
        lambda rng: [rng.randrange(5, 50)],
    ),
    (
        "select gapply(select count(*) from g where p_retailprice > $1) "
        "as (expensive) from partsupp, part "
        "where ps_partkey = p_partkey group by ps_suppkey : g",
        lambda rng: [round(rng.uniform(900.0, 2100.0), 2)],
    ),
    (query_by_name(QUERY).gapply_sql, None),
)

#: Zipf-ish weights: shape 0 dominates, the tail still recurs — the
#: skew that makes a plan cache pay for itself.
SHAPE_WEIGHTS = tuple(1.0 / rank for rank in range(1, len(SHAPE_WORKLOAD) + 1))

SKEW_OPS = 120


def _skewed_ops(seed: int, ops: int):
    """The (sql, params) stream, deterministic per seed so the cache-on
    and cache-off arms replay the identical workload."""
    rng = random.Random(seed)
    indexes = rng.choices(range(len(SHAPE_WORKLOAD)), SHAPE_WEIGHTS, k=ops)
    stream = []
    for index in indexes:
        sql, make_params = SHAPE_WORKLOAD[index]
        stream.append((sql, make_params(rng) if make_params else None))
    return stream


def _run_skewed(service: Service, seed: int, ops: int) -> dict[str, float]:
    """One client replaying the skewed stream; per-query latencies."""
    latencies: list[float] = []
    for sql, params in _skewed_ops(seed, ops):
        started = time.perf_counter()
        service.sql(sql, params=params)
        latencies.append(time.perf_counter() - started)
    latencies.sort()
    count = len(latencies)
    return {
        "elapsed": sum(latencies),
        "completed": count,
        "p50": latencies[count // 2],
        "p99": latencies[min(count - 1, int(count * 0.99))],
    }


# ----------------------------------------------------------------------
# pytest-benchmark suite
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def service(bench_catalog):
    with Service(Database(bench_catalog)) as svc:
        yield svc


@pytest.fixture(scope="module")
def expected_rows(bench_catalog):
    return len(Database(bench_catalog).sql(query_by_name(QUERY).gapply_sql).rows)


def test_direct_database_baseline(benchmark, bench_catalog, expected_rows):
    db = Database(bench_catalog)
    sql = query_by_name(QUERY).gapply_sql
    rows = benchmark(lambda: len(db.sql(sql).rows))
    assert rows == expected_rows


def test_service_single_client(benchmark, service, expected_rows):
    sql = query_by_name(QUERY).gapply_sql
    rows = benchmark(lambda: len(service.sql(sql).rows))
    assert rows == expected_rows


@pytest.mark.parametrize("clients", CONCURRENCIES)
def test_service_concurrent_clients(benchmark, service, clients):
    sql = query_by_name(QUERY).gapply_sql
    stats = benchmark.pedantic(
        _run_clients,
        args=(service, sql, clients, OPS_PER_CLIENT),
        rounds=3,
        iterations=1,
    )
    assert stats["completed"] == clients * OPS_PER_CLIENT
    assert stats["shed"] == 0  # default queue depth absorbs this load


@pytest.mark.parametrize("cache", ["on", "off"])
def test_skewed_shapes(benchmark, bench_catalog, cache):
    database = (
        Database(bench_catalog)
        if cache == "on"
        else Database(bench_catalog, plan_cache=None)
    )
    with Service(database) as svc:
        stats = benchmark.pedantic(
            _run_skewed, args=(svc, 0, SKEW_OPS), rounds=3, iterations=1
        )
    assert stats["completed"] == SKEW_OPS


# ----------------------------------------------------------------------
# Script mode (CI bench-smoke)
# ----------------------------------------------------------------------


def _script_cases(scale: float, repetitions: int):
    from repro.bench.harness import Measurement
    from repro.storage.catalog import Catalog
    from repro.workloads.tpch import TpchConfig, load_tpch

    catalog = Catalog()
    load_tpch(catalog, TpchConfig(scale=scale))
    sql = query_by_name(QUERY).gapply_sql
    rows = len(Database(catalog).sql(sql).rows)

    cases = []
    for clients in CONCURRENCIES:
        best: dict[str, float] | None = None
        service = Service(Database(catalog))
        try:
            for _ in range(repetitions):
                stats = _run_clients(service, sql, clients, OPS_PER_CLIENT)
                if best is None or stats["elapsed"] < best["elapsed"]:
                    best = stats
        finally:
            service.shutdown(drain_timeout=10.0)
        cases.append(
            (
                f"{QUERY}-service-c{clients}",
                Measurement(
                    elapsed=best["elapsed"],
                    work=int(best["completed"]),
                    rows=rows,
                    metrics={
                        "throughput_qps": round(best["throughput"], 2),
                        "p99_seconds": round(best["p99"], 6),
                        "shed": int(best["shed"]),
                    },
                ),
            )
        )

    # Overload: 8 clients into 1 slot with a 1-deep queue — measures the
    # shedding path. Time per *attempt* stays flat because shed queries
    # fail fast instead of queueing without bound.
    overload = Service(
        Database(catalog),
        config=ServiceConfig(max_concurrency=1, max_queue_depth=1),
    )
    try:
        best = None
        for _ in range(repetitions):
            stats = _run_clients(overload, sql, 8, OPS_PER_CLIENT)
            if best is None or stats["elapsed"] < best["elapsed"]:
                best = stats
        shed_rate = best["shed"] / (8 * OPS_PER_CLIENT)
    finally:
        overload.shutdown(drain_timeout=10.0)
    cases.append(
        (
            f"{QUERY}-service-overload-c8",
            Measurement(
                elapsed=best["elapsed"],
                work=int(best["completed"]),
                rows=rows,
                metrics={
                    "throughput_qps": round(best["throughput"], 2),
                    "p99_seconds": round(best["p99"], 6),
                    "shed": int(best["shed"]),
                    "shed_rate": round(shed_rate, 3),
                },
            ),
        )
    )

    # Skewed-shape workload, plan cache on vs off: the same seeded stream
    # of parameterized arrivals, so the p50/p99 gap is the per-query
    # bind+optimize cost the cache deletes.
    for cache_on in (True, False):
        database = Database(catalog) if cache_on else Database(
            catalog, plan_cache=None
        )
        service = Service(database)
        try:
            best = None
            for _ in range(repetitions):
                stats = _run_skewed(service, seed=0, ops=SKEW_OPS)
                if best is None or stats["elapsed"] < best["elapsed"]:
                    best = stats
            metrics = {
                "p50_seconds": round(best["p50"], 6),
                "p99_seconds": round(best["p99"], 6),
                "shapes": len(SHAPE_WORKLOAD),
            }
            if cache_on:
                cache_stats = database.plan_cache.stats()
                lookups = cache_stats["hits"] + cache_stats["misses"]
                metrics["cache_hit_rate"] = round(
                    cache_stats["hits"] / lookups, 3
                ) if lookups else 0.0
                metrics["cache_replans"] = cache_stats["replans"]
        finally:
            service.shutdown(drain_timeout=10.0)
        label = "cache-on" if cache_on else "cache-off"
        cases.append(
            (
                f"skewed-shapes-{label}",
                Measurement(
                    elapsed=best["elapsed"],
                    work=int(best["completed"]),
                    rows=int(best["completed"]),
                    metrics=metrics,
                ),
            )
        )
    return cases


if __name__ == "__main__":
    from smokebench import bench_main

    bench_main("serve_throughput", _script_cases)
