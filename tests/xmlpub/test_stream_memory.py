"""Peak-memory regression battery for streaming publishing.

A ~100k-row Figure-8-style view (parent groups, correlated child rows,
a per-group aggregate) is published under a tight cell budget, so the
partition phase spills through the external merge sort. The claims
under test:

* **Flatness** — growing the document 10x leaves the traced allocation
  peak essentially unchanged: memory is bounded by the *budget*, never
  by the data. (Planner statistics are warmed outside the measurement —
  the catalog's one-time per-table scan is O(rows) by design and cached
  for the life of the database.)
* **Bounded buffering** — the governor's ``peak_cells`` never exceeds
  the configured budget, and a cap that genuinely cannot hold the
  pending chunk buffer fails with the typed
  :class:`~repro.errors.MemoryBudgetExceeded`, not an OOM.
* **Hygiene** — mid-stream cancellation or abandonment releases every
  governor cell and closes every spill file
  (:func:`repro.storage.spill.live_spill_files`), whether the rows come
  from the compiled plan or from the row-iterator reference.

The sorted-outer-union formulation is covered too: its materializing
ORDER BY now external-merge-sorts under the budget (DESIGN.md §10.2),
so *both* publishing formulations stream constant-memory end to end.
"""

import tracemalloc

import pytest

from repro.api import Database
from repro.errors import MemoryBudgetExceeded, QueryCancelled
from repro.execution.context import ExecutionContext
from repro.execution.governor import Budget, Governor
from repro.execution.vector.batch import row_slices
from repro.fuzz.oracle import reference_rows
from repro.storage import DataType
from repro.storage.spill import live_spill_files
from repro.xmlpub import XmlChunkStream, translate_xquery
from repro.xmlpub.view import XmlChildEdge, XmlField, XmlView, XmlViewNode

N_GROUPS = 250
BUDGET_CELLS = 20_000

FIG8_QUERY = (
    "for $g in /doc(d)/groups/grp return <ret> $g/g_key, "
    "<items> for $i in $g/item return <item> $i/i_name, $i/i_price "
    "</item> </items>, avg($g/item/i_price) </ret>"
)


def fig8_view() -> XmlView:
    return XmlView(
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
                        query=(
                            "select i_gkey, i_id, i_name, i_price from item"
                        ),
                        key=("i_id",),
                        fields=(XmlField("i_name"), XmlField("i_price")),
                    ),
                    parent_columns=("g_key",),
                    child_columns=("i_gkey",),
                ),
            ),
        ),
    )


def fig8_db(n_rows: int) -> Database:
    db = Database()
    db.create_table(
        "grp",
        [("g_key", DataType.INTEGER), ("g_name", DataType.STRING)],
        [(g, f"group{g}") for g in range(N_GROUPS)],
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
            (i, i % N_GROUPS, f"item-{i}", (i % 400) * 0.25)
            for i in range(n_rows)
        ],
        primary_key=["i_id"],
    )
    # Warm the catalog's per-table statistics now: computing them is a
    # deliberate O(rows) one-time scan, cached afterwards, and must not
    # pollute the streaming measurement.
    db.catalog.statistics("grp")
    db.catalog.statistics("item")
    return db


def publish_stream(db: Database, **kwargs):
    kwargs.setdefault("memory_budget", BUDGET_CELLS)
    kwargs.setdefault("timeout", 300)
    return db.publish(fig8_view(), FIG8_QUERY, "gapply", **kwargs)


#: Where a stream's rows come from: ``vector`` is ``Database.publish``;
#: ``volcano`` feeds the same chunk stream from the row-iterator
#: reference, whose spill state a closing stream must reclaim as well.
ROW_SOURCES = ("volcano", "vector")


def stream_from(db: Database, rows_from: str) -> XmlChunkStream:
    if rows_from == "vector":
        return publish_stream(db)
    translated = translate_xquery(FIG8_QUERY, fig8_view(), db.catalog)
    sql = translated.sql_for("gapply")
    governor = Governor(Budget(timeout=300, memory_cells=BUDGET_CELLS))
    rows = reference_rows(db, sql, ExecutionContext(governor=governor))
    return XmlChunkStream(
        row_slices(rows), translated.spec, governor=governor, sql=sql
    )


def traced_publish_peak(db: Database) -> tuple[int, int, int]:
    """(traced alloc peak, document bytes, governor peak cells)."""
    tracemalloc.start()
    try:
        stream = publish_stream(db)
        doc_bytes = sum(len(chunk) for chunk in stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, doc_bytes, stream.governor.peak_cells


def test_peak_memory_flat_as_document_grows_10x():
    # Absorb one-time allocations (module/bytecode caches, spill setup)
    # before either measured run.
    traced_publish_peak(fig8_db(1_000))

    small_peak, small_doc, small_cells = traced_publish_peak(fig8_db(10_000))
    big_peak, big_doc, big_cells = traced_publish_peak(fig8_db(100_000))

    assert big_doc > 8 * small_doc  # the document really grew ~10x
    assert small_cells <= BUDGET_CELLS and big_cells <= BUDGET_CELLS
    # Flat: a materializing regression would show up as ~document-sized
    # growth (the 100k document is several MB); budget-bounded streaming
    # stays within noise of the small run.
    assert big_peak < 1.5 * small_peak + 512 * 1024, (
        f"peak grew {small_peak}B -> {big_peak}B for a 10x document; "
        "streaming is no longer constant-memory"
    )
    # And in absolute terms the pipeline never holds a document's worth.
    assert big_peak < big_doc / 4


def test_bounded_buffering_and_clean_finish():
    db = fig8_db(20_000)
    stream = publish_stream(db, chunk_bytes=4096)
    doc = stream.read_all()
    assert doc.startswith(b"<groups_result>")
    assert doc.endswith(b"</groups_result>")
    governor = stream.governor
    assert 0 < governor.peak_cells <= BUDGET_CELLS
    assert governor.cells_in_use == 0
    assert governor.emitted_bytes == len(doc)
    # The pending buffer never held much more than one chunk.
    assert stream.stats.peak_buffer_bytes < 4096 + 512
    assert live_spill_files() == frozenset()


def test_genuinely_too_small_budget_raises_typed_error():
    db = fig8_db(20_000)
    # A chunk buffer bigger than the whole budget can never fit: the
    # publisher must fail with the typed budget error before buffering
    # a document's worth of text.
    stream = publish_stream(db, memory_budget=500, chunk_bytes=1 << 20)
    with pytest.raises(MemoryBudgetExceeded):
        stream.read_all()
    assert isinstance(stream.error, MemoryBudgetExceeded)
    # Raised by the chunk buffer, outside the row loop — still names the SQL.
    assert stream.error.sql == stream.sql
    assert stream.governor.cells_in_use == 0
    assert live_spill_files() == frozenset()


def test_union_formulation_streams_under_budget():
    # The sorted outer union needs a materializing ORDER BY over the
    # whole outer-union relation; that sort now spills to disk under the
    # budget (DESIGN §10.2), so the union formulation publishes the full
    # document constant-memory instead of raising MemoryBudgetExceeded.
    db = fig8_db(20_000)
    stream = db.publish(
        fig8_view(),
        FIG8_QUERY,
        "union",
        memory_budget=BUDGET_CELLS,
        timeout=300,
    )
    doc = stream.read_all()
    assert doc.startswith(b"<groups_result>")
    assert doc.endswith(b"</groups_result>")
    assert 0 < stream.governor.peak_cells <= BUDGET_CELLS
    assert stream.governor.cells_in_use == 0
    assert live_spill_files() == frozenset()


def test_shared_budget_spills_instead_of_failing():
    # The partition phase's spill threshold is the *full* budget, but the
    # budget is shared: the publisher's chunk buffer holds a cell at the
    # same time. With a row width that divides the budget exactly, the
    # partition buffer used to fill to precisely the cap and that one
    # concurrent cell tipped the next charge over — a typed failure on a
    # budget that was not genuinely too small. The partition phase must
    # spill what it holds and retry instead of giving up.
    db = Database()
    db.create_table(
        "grp",
        [("g_key", DataType.INTEGER), ("g_name", DataType.STRING)],
        [(g, f"g{g}") for g in range(50)],
        primary_key=["g_key"],
    )
    db.create_table(
        "item",
        [
            ("i_id", DataType.INTEGER),
            ("i_gkey", DataType.INTEGER),
            ("i_name", DataType.STRING),
        ],
        [(i, i % 50, f"item-{i}") for i in range(12_000)],
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
            fields=(XmlField("g_key"),),
            children=(
                XmlChildEdge(
                    node=XmlViewNode(
                        tag="item",
                        query="select i_gkey, i_id, i_name from item",
                        key=("i_id",),
                        fields=(XmlField("i_name"),),
                    ),
                    parent_columns=("g_key",),
                    child_columns=("i_gkey",),
                ),
            ),
        ),
    )
    query = (
        "for $g in /doc(d)/groups/grp return <ret> $g/g_key, "
        "<items> for $i in $g/item return <item> $i/i_name </item> "
        "</items> </ret>"
    )
    # Joined outer width is 5 (2 grp + 3 item columns), which divides the
    # budget exactly — the failing alignment.
    stream = db.publish(
        view,
        query,
        "gapply",
        memory_budget=BUDGET_CELLS,
        timeout=300,
    )
    doc = stream.read_all()
    assert doc.startswith(b"<groups_result>")
    assert stream.governor.peak_cells <= BUDGET_CELLS
    assert stream.governor.cells_in_use == 0
    assert live_spill_files() == frozenset()


@pytest.mark.parametrize("rows_from", ROW_SOURCES)
def test_midstream_cancel_releases_spill_files_and_cells(rows_from):
    db = fig8_db(20_000)
    stream = stream_from(db, rows_from)
    iterator = iter(stream)
    next(iterator)
    next(iterator)
    # The budget forces the partition phase onto disk; the point of the
    # test is that cancellation reclaims those files.
    assert live_spill_files() != frozenset()
    stream.governor.cancel()
    with pytest.raises(QueryCancelled):
        for _chunk in iterator:
            pass
    assert isinstance(stream.error, QueryCancelled)
    assert stream.closed
    assert live_spill_files() == frozenset()
    assert stream.governor.cells_in_use == 0


@pytest.mark.parametrize("rows_from", ROW_SOURCES)
def test_abandoning_stream_releases_spill_files_and_cells(rows_from):
    db = fig8_db(20_000)
    with stream_from(db, rows_from) as stream:
        next(iter(stream))
        assert live_spill_files() != frozenset()
    assert stream.closed and stream.error is None
    assert live_spill_files() == frozenset()
    assert stream.governor.cells_in_use == 0
