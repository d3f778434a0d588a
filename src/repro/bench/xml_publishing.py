"""A3: end-to-end XML publishing — translate + execute + tag.

Measures the full pipeline the paper's architecture diagram implies:
XQuery -> SQL -> server execution -> constant-space tagging, comparing
"sorting and tagging" against the GApply path for the paper's Q1 and Q2.

Three sections. The **materializing** cases (``Q/formulation``) execute
the compiled plan to a row list and tag it. The **streaming** cases
(``Q/formulation/stream``) run the same queries through
``Database.publish`` (lazy rows -> bounded chunk buffer -> encoded
chunks), reporting docs/sec plus memory metrics (traced allocation peak
and process peak RSS) in each measurement's ``metrics`` dict. The
``stream-mem`` pair publishes a generated Figure-8-style document at 1x
and 10x rows under a fixed cell budget — the JSON artifact CI uploads
shows at a glance whether streaming stayed constant-memory.
"""

from __future__ import annotations

import resource
import time
import tracemalloc
from typing import Callable

from repro.api import Database
from repro.bench.harness import (
    Measurement,
    bind,
    lower,
    measure_callable,
    optimize_with,
    tpch_catalog,
)
from repro.execution.context import ExecutionContext
from repro.execution.vector.compiler import compile_plan
from repro.storage.types import DataType
from repro.xmlpub import (
    FORMULATIONS,
    ConstantSpaceTagger,
    tpch_supplier_view,
    translate_xquery,
)
from repro.xmlpub.view import XmlChildEdge, XmlField, XmlView, XmlViewNode

Q1 = (
    "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> $s/s_suppkey, "
    "<parts> for $p in $s/part return <part> $p/p_name, $p/p_retailprice "
    "</part> </parts>, avg($s/part/p_retailprice) </ret>"
)
Q2 = (
    "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> $s/s_suppkey, "
    "<count_above> count($s/part[p_retailprice >= avg($s/part/p_retailprice)]) "
    "</count_above>, <count_below> count($s/part[p_retailprice < "
    "avg($s/part/p_retailprice)]) </count_below> </ret>"
)

XQUERIES = {"Q1": Q1, "Q2": Q2}


def _measure_stream(fn: Callable[[], int], repetitions: int) -> Measurement:
    """Best-of-N for a streaming publish; memory metrics from the best run.

    ``metrics`` carries ``docs_per_sec`` (1/elapsed for the single
    document), ``doc_bytes``, ``traced_peak_bytes`` (tracemalloc high
    water across the run) and ``peak_rss_kb`` (process lifetime high
    water — monotone, so only comparable within one artifact).
    """
    best = float("inf")
    doc_bytes = traced_peak = 0
    for _ in range(repetitions):
        tracemalloc.start()
        started = time.perf_counter()
        size = fn()
        elapsed = time.perf_counter() - started
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if elapsed < best:
            best, doc_bytes, traced_peak = elapsed, size, peak
    return Measurement(
        elapsed=best,
        work=0,
        rows=doc_bytes,
        metrics={
            "docs_per_sec": (1.0 / best) if best > 0 else 0.0,
            "doc_bytes": doc_bytes,
            "traced_peak_bytes": traced_peak,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
    )


def _fig8_stream_db(n_rows: int, n_groups: int = 250):
    """A generated Figure-8-style parent/child database for stream-mem."""
    db = Database()
    db.create_table(
        "grp",
        [("g_key", DataType.INTEGER), ("g_name", DataType.STRING)],
        [(g, f"group{g}") for g in range(n_groups)],
        primary_key=["g_key"],
    )
    db.create_table(
        "item",
        [
            ("i_id", DataType.INTEGER),
            ("i_gkey", DataType.INTEGER),
            ("i_name", DataType.STRING),
            ("i_price", DataType.FLOAT),
        ],
        [
            (i, i % n_groups, f"item-{i}", (i % 400) * 0.25)
            for i in range(n_rows)
        ],
        primary_key=["i_id"],
    )
    db.catalog.statistics("grp")
    db.catalog.statistics("item")
    view = XmlView(
        root_tag="groups",
        node=XmlViewNode(
            tag="grp",
            query="select g_key, g_name from grp",
            key=("g_key",),
            fields=(XmlField("g_key"), XmlField("g_name")),
            children=(
                XmlChildEdge(
                    node=XmlViewNode(
                        tag="item",
                        query="select i_gkey, i_id, i_name, i_price from item",
                        key=("i_id",),
                        fields=(XmlField("i_name"), XmlField("i_price")),
                    ),
                    parent_columns=("g_key",),
                    child_columns=("i_gkey",),
                ),
            ),
        ),
    )
    query = (
        "for $g in /doc(d)/groups/grp return <ret> $g/g_key, "
        "<items> for $i in $g/item return <item> $i/i_name, $i/i_price "
        "</item> </items>, avg($g/item/i_price) </ret>"
    )
    return db, view, query


def cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    catalog = tpch_catalog(scale)
    view = tpch_supplier_view()
    named = []
    # Materializing section. Translation, optimization, lowering and
    # compilation happen outside the timed region, as in measure_physical;
    # the timed unit is the compiled plan's execution plus tagging, so these
    # rows and the /stream rows below describe the same engine.
    for name, xquery in XQUERIES.items():
        translated = translate_xquery(xquery, view, catalog)
        for label, sql in (
            ("union", translated.outer_union_sql),
            ("gapply", translated.gapply_sql),
        ):
            logical = optimize_with(catalog, bind(catalog, sql))
            compiled = compile_plan(lower(catalog, logical))
            tagger = ConstantSpaceTagger(translated.spec)

            def publish() -> int:
                rows = compiled.run(ExecutionContext())
                return sum(len(chunk) for chunk in tagger.tag(rows))

            named.append((f"{name}/{label}", measure_callable(publish, repetitions)))
    # Streaming section: the full Database.publish pipeline (lazy rows,
    # bounded chunk buffer), docs/sec + memory metrics per measurement.
    stream_db = Database(catalog)
    for name, xquery in XQUERIES.items():
        for label in FORMULATIONS:

            def run() -> int:
                return sum(len(c) for c in stream_db.publish(view, xquery, label))

            named.append((f"{name}/{label}/stream", _measure_stream(run, repetitions)))
    # Constant-memory check: one generated document at 1x and 10x rows,
    # same cell budget; flat traced_peak_bytes across the pair is the
    # streaming claim (asserted in tests/xmlpub/test_stream_memory.py;
    # reported here so the CI artifact records the trend over time).
    base_rows = max(1_000, int(500_000 * scale) // 10)
    for label, n_rows in (("1x", base_rows), ("10x", base_rows * 10)):
        db, fig8_view, fig8_query = _fig8_stream_db(n_rows)

        def run_mem() -> int:
            return sum(
                len(c)
                for c in db.publish(
                    fig8_view,
                    fig8_query,
                    "gapply",
                    memory_budget=20_000,
                    timeout=300,
                )
            )

        named.append((f"stream-mem/{label}", _measure_stream(run_mem, 1)))
    return named
