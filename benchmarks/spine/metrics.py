"""The names the spine benchmark may print: workloads, metrics, bounds.

One table for everything ``run.py`` emits, ``compare.py`` judges and
``selftest.py`` checks against ``BENCHMARK.json``. A later performance
claim names one end-to-end metric and one workload from here.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: name -> why the workload exists (one line; copied into BENCHMARK.json).
WORKLOADS: dict[str, str] = {
    "sql_cold": (
        "plan cache cleared before every Database.sql: the optimizer is "
        "80-90% of each request, execution is kept small"
    ),
    "sql_hot": (
        "cache primed, Q3 constants redrawn per request: zero optimizer "
        "runs, so parse/key/lower/execute set the time"
    ),
    "publish_doc": (
        "Q1 streamed as ~844 KB documents, gapply then union: tagging, "
        "escaping and encoding dominate"
    ),
    "publish_agg": (
        "Q2 streamed as ~5 KB documents: same entry point, tagger idle, "
        "translate/bind/optimize run on every call"
    ),
    "mixed_rw": (
        "durable Service, one write per 40 requests: each write strands "
        "all 8 cached plans, so readers pay for writers"
    ),
    "write_durable": (
        "auto-commit and 20-insert transactions with checkpoints, "
        "fsync=never: the journaling path alone, then recovery"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen
    #: (absolute for ``error_share``); ``None`` = per-layer, never gated.
    bound: float | None = None
    #: Workloads the metric applies to; empty = all.
    workloads: tuple[str, ...] = ()
    #: True for the metrics every workload reports, which BENCHMARK.json
    #: declares and the driver gates.
    gated: bool = False

    def applies_to(self, workload: str) -> bool:
        return not self.workloads or workload in self.workloads


PUBLISH = ("publish_doc", "publish_agg")

END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, gated=True),
    Metric("ops_per_s", "1/s", "higher", 0.25, gated=True),
    Metric("op_p50_ms", "ms", "lower", 0.25, gated=True),
    Metric("op_p90_ms", "ms", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10, gated=True),
    Metric("xml_mb_per_s", "MB/s", "higher", 0.25, ("publish_doc",)),
    Metric("first_chunk_ms", "ms", "lower", 0.25, PUBLISH),
    Metric("recovery_ms", "ms", "lower", 0.25, ("write_durable",)),
    Metric("stored_bytes_per_user_byte", "ratio", "lower", 0.01, ("write_durable",)),
    Metric("error_share", "ratio", "lower", 0.0),
)

_MS = ("ms", "lower")
_US = ("us", "lower")
_COUNT = ("count", "lower")

#: Per-layer metrics from the traced run. Times are per-call medians,
#: counts are totals over the traced request list.
PER_LAYER: tuple[Metric, ...] = (
    Metric("sql.parser.parse_ms", *_MS),
    Metric("sql.normalize.key_ms", *_MS),
    Metric("sql.binder.bind_ms", *_MS),
    Metric("optimizer.engine.optimize_ms", *_MS),
    Metric("optimizer.engine.explored", *_COUNT),
    Metric("optimizer.engine.truncated", *_COUNT),
    Metric("optimizer.planner.lower_ms", *_MS),
    Metric("optimizer.plancache.substitute_ms", *_MS),
    Metric("optimizer.plancache.hits", "count", "higher"),
    Metric("optimizer.plancache.misses", *_COUNT),
    Metric("optimizer.plancache.invalidations", *_COUNT),
    Metric("optimizer.plancache.replans", *_COUNT),
    Metric("optimizer.plancache.hit_ratio", "ratio", "higher"),
    Metric("execution.volcano.execute_ms", *_MS),
    Metric("execution.vector.compile_ms", *_MS),
    Metric("execution.vector.execute_ms", *_MS),
    Metric("execution.vector.fallback_ops", *_COUNT),
    Metric("execution.work", *_COUNT),
    Metric("execution.rows_out", *_COUNT),
    Metric("execution.buffered_cells", *_COUNT),
    Metric("execution.spill_runs", *_COUNT),
    Metric("xmlpub.translate.translate_ms", *_MS),
    Metric("xmlpub.tagger.tag_ms", *_MS),
    Metric("xmlpub.tagger.rows_in", *_COUNT),
    Metric("xmlpub.tagger.mb_per_s", "MB/s", "higher"),
    Metric("xmlpub.stream.chunk_encode_ms", *_MS),
    Metric("xmlpub.stream.chunks", *_COUNT),
    Metric("xmlpub.stream.bytes_emitted", *_COUNT),
    Metric("xmlpub.stream.peak_buffer_bytes", "bytes", "lower"),
    Metric("storage.wal.append_us", *_US),
    Metric("storage.wal.wal_bytes", "bytes", "lower"),
    Metric("storage.wal.fsyncs", *_COUNT),
    Metric("storage.wal.checkpoint_ms", *_MS),
    Metric("storage.wal.checkpoint_bytes", "bytes", "lower"),
    Metric("storage.wal.replay_records_per_s", "1/s", "higher"),
    Metric("storage.wal.fsync_wait_us", *_US),
    Metric("storage.catalog.insert_us", *_US),
    Metric("storage.catalog.snapshot_us", *_US),
    Metric("serve.admission_us", *_US),
    Metric("serve.queue_wait_ms", *_MS),
    Metric("serve.shed", *_COUNT),
    Metric("api.glue_ms", *_MS),
    Metric("api.staged_share", "ratio", "higher"),
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("host.slowdown", "ratio", "lower"),
)

#: Counts that must repeat exactly for one seed (selftest and compare).
EXACT_COUNTS: tuple[str, ...] = (
    "optimizer.engine.explored",
    "optimizer.plancache.hits",
    "optimizer.plancache.misses",
    "optimizer.plancache.invalidations",
    "optimizer.plancache.replans",
    "execution.work",
    "storage.wal.wal_bytes",
    "xmlpub.stream.bytes_emitted",
)


def gated_metrics() -> tuple[Metric, ...]:
    return tuple(m for m in END_TO_END if m.gated)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def percentile(sorted_values: list[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * share)) - 1]


def class_median(latencies: list[float], labels: list[str]) -> float:
    """The median request latency, estimated through the request classes.

    A workload's requests are a mix of a few classes (the 8 formulations,
    ``gapply`` and ``union``), each a tight cluster of latencies. With
    classes of equal weight the pooled median falls in the gap between
    two clusters and jumps with their tails from run to run. This is the
    same quantity taken as the weighted median of the per-class medians,
    weights being the class counts; where the cumulative weight is
    exactly half, the two neighbouring class medians are averaged, as the
    median of an even-sized sample averages its middle pair.
    """
    by_class: dict[str, list[float]] = {}
    for latency, label in zip(latencies, labels):
        by_class.setdefault(label, []).append(latency)
    medians = sorted((statistics.median(v), len(v)) for v in by_class.values())
    half, seen = len(latencies) / 2, 0
    for position, (median, weight) in enumerate(medians):
        seen += weight
        if seen == half:
            return (median + medians[position + 1][0]) / 2
        if seen > half:
            return median
    raise ValueError("no latencies")
