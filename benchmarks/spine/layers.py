"""Per-layer metrics from one traced run: span medians, paired span
differences, the program's own counts, and how much of the one-call span
the staged replay accounts for."""

from __future__ import annotations

import statistics
from collections import Counter

from metrics import PER_LAYER
from spans import Tracer

#: metric -> (span name, multiplier): median duration of the span.
SPAN_MEDIANS = {
    "sql.parser.parse_ms": ("sql.parser.parse", 1e3),
    "sql.normalize.key_ms": ("sql.normalize.key", 1e3),
    "sql.binder.bind_ms": ("sql.binder.bind", 1e3),
    "optimizer.engine.optimize_ms": ("optimizer.engine.optimize", 1e3),
    "optimizer.planner.lower_ms": ("optimizer.planner.lower", 1e3),
    "optimizer.plancache.substitute_ms": ("optimizer.plancache.substitute", 1e3),
    "execution.volcano.execute_ms": ("execution.volcano.execute", 1e3),
    "execution.vector.compile_ms": ("execution.vector.compile", 1e3),
    "execution.vector.execute_ms": ("execution.vector.execute", 1e3),
    "xmlpub.translate.translate_ms": ("xmlpub.translate.translate", 1e3),
    "xmlpub.tagger.tag_ms": ("xmlpub.tagger.tag", 1e3),
    "storage.wal.checkpoint_ms": ("api.checkpoint", 1e3),
    "storage.catalog.insert_us": ("storage.catalog.insert_rows", 1e6),
    "storage.catalog.snapshot_us": ("storage.catalog.snapshot", 1e6),
    "serve.queue_wait_ms": ("serve.admission.acquire", 1e3),
}

#: metric -> (span, span taken away, multiplier): median over the
#: requests that have both of the first minus the second.
SPAN_DIFFERENCES = {
    # stream_document builds its own tagger, so its self time is what is
    # left when the tagger alone, run over the same rows, is taken away.
    "xmlpub.stream.chunk_encode_ms": ("xmlpub.stream.document", "xmlpub.tagger.tag", 1e3),
    # The same insert on an in-memory twin is the catalog's share.
    "storage.wal.append_us": ("api.insert", "storage.catalog.insert_rows", 1e6),
    "serve.admission_us": ("serve.service.sql", "serve.database.sql", 1e6),
}

#: Totals taken as they are from the workload's and the program's counters.
COUNTS = tuple(m.name for m in PER_LAYER if m.unit in ("count", "bytes"))


def layer_metrics(
    tracer: Tracer,
    counts: Counter,
    plain_busy: float,
    traced_busy: float,
) -> dict[str, tuple[float, int]]:
    """name -> (value, samples). A layer with no calls on this workload
    has 0 samples; its value is 0 and the report leaves it out."""
    metrics: dict[str, tuple[float, int]] = {}
    for name, (span, multiplier) in SPAN_MEDIANS.items():
        metrics[name] = _median(tracer.durations(span), multiplier)
    for name, (span, minus, multiplier) in SPAN_DIFFERENCES.items():
        whole, part = tracer.by_request(span), tracer.by_request(minus)
        metrics[name] = _median(
            [whole[r] - part[r] for r in whole if r in part], multiplier
        )
    for name in COUNTS:
        metrics[name] = (counts[name], 1 if name in counts else 0)

    lookups = counts["optimizer.plancache.hits"] + counts["optimizer.plancache.misses"]
    metrics["optimizer.plancache.hit_ratio"] = (
        (counts["optimizer.plancache.hits"] / lookups, lookups) if lookups else (0.0, 0)
    )
    tagging = tracer.durations("xmlpub.tagger.tag")
    metrics["xmlpub.tagger.mb_per_s"] = (
        (counts["xmlpub.tagger.bytes"] / 1e6 / sum(tagging), len(tagging))
        if tagging
        else (0.0, 0)
    )
    recovering = counts["storage.wal.recovery_seconds"]
    metrics["storage.wal.replay_records_per_s"] = (
        (counts["storage.wal.replayed_records"] / recovering, 1) if recovering else (0.0, 0)
    )
    always = tracer.durations("storage.wal.insert.always")
    never = tracer.durations("storage.wal.insert.never")
    metrics["storage.wal.fsync_wait_us"] = (
        ((statistics.median(always) - statistics.median(never)) * 1e6, len(always))
        if always
        else (0.0, 0)
    )

    # One call against its staged replay, request by request.
    calls = {
        s.request_id: s.duration
        for s in tracer.spans
        if s.parent is None and s.name.startswith("api.")
    }
    layers = tracer.children_by_request("staged")
    paired = [r for r in layers if r in calls]
    metrics["api.glue_ms"] = _median([calls[r] - layers[r] for r in paired], 1e3)
    metrics["api.staged_share"] = (
        (sum(layers[r] for r in paired) / sum(calls[r] for r in paired), len(paired))
        if paired
        else (0.0, 0)
    )
    metrics["trace.overhead_ratio"] = (traced_busy / plain_busy, len(calls))
    return metrics


def _median(values: list[float], multiplier: float) -> tuple[float, int]:
    if not values:
        return 0.0, 0
    return statistics.median(values) * multiplier, len(values)
