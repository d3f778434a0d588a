"""Concurrent service throughput: queries/sec and tail latency vs client
concurrency, plus the cost of admission control itself.

The :mod:`repro.serve` service puts admission control, snapshot pinning
and per-query governors in front of every read. This experiment measures
what that buys and what it costs on the paper's Q1 workload:

* **concurrency scaling** — N client threads hammering the service;
  throughput should hold (Python threads serialize CPU, so the point is
  *no collapse* from lock contention, not speedup);
* **overload behavior** — more clients than slots with a tiny queue:
  shed queries fail in microseconds with ``ServiceOverloaded`` instead of
  queueing without bound; the shed rate and the p99 of *admitted* queries
  are the numbers to watch (reported in the measurement's metrics dict);
* **plan-cache payoff** — a zipf-skewed stream over a handful of
  parameterized query shapes (the production shape of the paper's
  workload: the same published views re-requested with new parameters),
  measured with the plan cache on vs off; the p50 gap is the per-query
  bind+optimize cost the cache deletes, reported with the hit rate.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro.api import Database
from repro.bench.harness import Measurement, tpch_catalog
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


def _best_of(
    repetitions: int, service: Service, run: Callable[[Service], dict[str, float]]
) -> dict[str, float]:
    """The fastest of ``repetitions`` runs against ``service``, which is
    shut down afterwards."""
    try:
        return min(
            (run(service) for _ in range(repetitions)), key=lambda s: s["elapsed"]
        )
    finally:
        service.shutdown(drain_timeout=10.0)


def _measurement(best: dict[str, float], rows: int, metrics: dict) -> Measurement:
    """``work`` is the number of queries that completed."""
    return Measurement(
        elapsed=best["elapsed"],
        work=int(best["completed"]),
        rows=rows,
        metrics=metrics,
    )


def _client_metrics(stats: dict[str, float]) -> dict:
    return {
        "throughput_qps": round(stats["throughput"], 2),
        "p99_seconds": round(stats["p99"], 6),
        "shed": int(stats["shed"]),
    }


def cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    catalog = tpch_catalog(scale)
    sql = query_by_name(QUERY).gapply_sql
    rows = len(Database(catalog).sql(sql).rows)

    named = []
    for clients in CONCURRENCIES:
        best = _best_of(
            repetitions,
            Service(Database(catalog)),
            lambda service: _run_clients(service, sql, clients, OPS_PER_CLIENT),
        )
        named.append(
            (
                f"{QUERY}-service-c{clients}",
                _measurement(best, rows, _client_metrics(best)),
            )
        )

    # Overload: 8 clients into 1 slot with a 1-deep queue — measures the
    # shedding path. Time per *attempt* stays flat because shed queries
    # fail fast instead of queueing without bound.
    overload = Service(
        Database(catalog),
        config=ServiceConfig(max_concurrency=1, max_queue_depth=1),
    )
    best = _best_of(
        repetitions,
        overload,
        lambda service: _run_clients(service, sql, 8, OPS_PER_CLIENT),
    )
    shed_rate = best["shed"] / (8 * OPS_PER_CLIENT)
    metrics = {**_client_metrics(best), "shed_rate": round(shed_rate, 3)}
    named.append(
        (f"{QUERY}-service-overload-c8", _measurement(best, rows, metrics))
    )

    # Skewed-shape workload, plan cache on vs off: the same seeded stream
    # of parameterized arrivals, so the p50/p99 gap is the per-query
    # bind+optimize cost the cache deletes.
    for cache_on in (True, False):
        database = Database(catalog) if cache_on else Database(
            catalog, plan_cache=None
        )
        best = _best_of(
            repetitions,
            Service(database),
            lambda service: _run_skewed(service, seed=0, ops=SKEW_OPS),
        )
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
        label = "cache-on" if cache_on else "cache-off"
        named.append(
            (
                f"skewed-shapes-{label}",
                _measurement(best, int(best["completed"]), metrics),
            )
        )
    return named
