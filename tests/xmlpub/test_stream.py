"""Unit tests for the streaming publisher and the escape layer.

Covers :func:`repro.xmlpub.stream.stream_document` (chunk framing,
governor charging, cleanup), :class:`repro.xmlpub.stream.XmlChunkStream`
(lifecycle, close hooks, error capture), and the
:func:`repro.xmlpub.tagger.escape_text` /
:func:`~repro.xmlpub.tagger.sanitize_parsed_text` pair via a
parse-round-trip property over adversarial values; and
:meth:`Database.publish <repro.api.Database.publish>` as a plan-cache
client (repeat publishes are hits, documents match an uncached twin).
"""

import dataclasses
import random
import xml.etree.ElementTree as ET

import pytest

from repro.api import Database
from repro.errors import (
    MemoryBudgetExceeded,
    QueryCancelled,
    ReproError,
    RowBudgetExceeded,
    XmlPublishError,
)
from repro.execution.governor import Budget, Governor
from repro.execution.vector.batch import row_slices
from repro.fuzz.xmlpub import NASTY_VALUES
from repro.optimizer.planner import PlannerOptions
from repro.xmlpub import (
    FORMULATIONS,
    PublishStats,
    XmlChunkStream,
    stream_document,
    sanitize_parsed_text,
    tpch_supplier_view,
    translate_xquery,
)
from repro.xmlpub.stream import DEFAULT_CHUNK_BYTES, STREAM_CELL_BYTES
from repro.xmlpub.tagger import (
    ConstantSpaceTagger,
    KeyItem,
    RowsBranch,
    ScalarBranch,
    TaggerSpec,
    escape_text,
)

from tests.xmlpub.queries import Q1, Q2

SPEC = TaggerSpec(
    root_tag="doc",
    group_tag="grp",
    key_count=1,
    key_items=(KeyItem("k", 0),),
    branches=(
        ScalarBranch(0, "val", 0),
        RowsBranch(1, "items", "item", (("f", 1),)),
    ),
)


def rows_for(n_groups: int, rows_per_group: int = 2) -> list[tuple]:
    rows = []
    for g in range(n_groups):
        rows.append((g, 0, f"value-{g}", None))
        for i in range(rows_per_group):
            rows.append((g, 1, None, f"row-{g}-{i}"))
    return rows


def materialized(rows) -> bytes:
    return ConstantSpaceTagger(SPEC).tag_to_string(rows).encode("utf-8")


class TestStreamDocument:
    @pytest.mark.parametrize("chunk_bytes", [1, 7, 64, 1 << 20])
    def test_chunking_never_changes_bytes(self, chunk_bytes):
        rows = rows_for(5)
        chunks = list(stream_document(rows, SPEC, chunk_bytes=chunk_bytes))
        assert b"".join(chunks) == materialized(rows)
        assert all(chunks)

    def test_chunk_bytes_bounds_every_chunk(self):
        rows = rows_for(20)
        chunks = list(stream_document(rows, SPEC, chunk_bytes=64))
        # A chunk may overshoot by at most one tagger fragment, which for
        # this spec is far below the chunk size itself.
        assert max(len(c) for c in chunks) < 2 * 64
        assert len(chunks) > 1

    def test_rejects_nonpositive_chunk_size(self):
        with pytest.raises(XmlPublishError):
            next(stream_document([], SPEC, chunk_bytes=0))

    def test_stats_accounting(self):
        rows = rows_for(4)
        stats = PublishStats()
        chunks = list(
            stream_document(rows, SPEC, chunk_bytes=32, stats=stats)
        )
        assert stats.rows_in == len(rows)
        assert stats.chunks == len(chunks)
        assert stats.bytes_emitted == sum(len(c) for c in chunks)
        assert 32 <= stats.peak_buffer_bytes < 32 + 64
        assert set(stats.snapshot()) == {
            "rows_in", "chunks", "bytes_emitted", "peak_buffer_bytes",
        }

    def test_closes_row_source_on_abandon(self):
        closed = []

        def source():
            try:
                for row in rows_for(50):
                    yield row
            finally:
                closed.append(True)

        gen = stream_document(source(), SPEC, chunk_bytes=8)
        next(gen)
        gen.close()
        assert closed == [True]


    def test_source_error_mid_slice_closes_source_and_releases_cells(self):
        closed = []

        def source():
            try:
                yield from rows_for(100)  # two whole slices and a part
                raise ReproError("row source failed")
            finally:
                closed.append(True)

        governor = Governor(Budget())
        gen = stream_document(source(), SPEC, chunk_bytes=1 << 20, governor=governor)
        with pytest.raises(ReproError, match="row source failed"):
            list(gen)
        assert closed == [True]
        assert governor.peak_cells > 0 and governor.cells_in_use == 0


class TestGovernorIntegration:
    def test_emitted_bytes_charged(self):
        rows = rows_for(6)
        governor = Governor(Budget())
        total = sum(
            len(c)
            for c in stream_document(
                rows, SPEC, chunk_bytes=16, governor=governor
            )
        )
        assert governor.emitted_bytes == total == len(materialized(rows))

    def test_buffer_held_against_memory_budget(self):
        rows = rows_for(50)
        doc_len = len(materialized(rows))
        cells_needed = doc_len // STREAM_CELL_BYTES
        assert cells_needed > 4  # the document genuinely exceeds the cap
        governor = Governor(Budget(memory_cells=4))
        with pytest.raises(MemoryBudgetExceeded):
            # chunk_bytes larger than the document: the whole document
            # would have to sit in the pending buffer.
            list(
                stream_document(
                    rows, SPEC, chunk_bytes=1 << 20, governor=governor
                )
            )
        assert governor.cells_in_use == 0  # released on the error path

    def test_small_chunks_fit_tight_budget(self):
        rows = rows_for(50)
        governor = Governor(Budget(memory_cells=4))
        chunks = list(
            stream_document(rows, SPEC, chunk_bytes=64, governor=governor)
        )
        assert b"".join(chunks) == materialized(rows)
        assert governor.cells_in_use == 0
        assert 0 < governor.peak_cells <= 4

    def test_cancel_stops_within_one_chunk(self):
        governor = Governor(Budget())
        gen = stream_document(
            rows_for(100), SPEC, chunk_bytes=32, governor=governor
        )
        next(gen)
        governor.cancel()
        with pytest.raises(QueryCancelled):
            for _ in gen:
                pass


class TestXmlChunkStream:
    def make(self, rows, **kwargs) -> XmlChunkStream:
        return XmlChunkStream(row_slices(rows), SPEC, **kwargs)

    def test_read_all_matches_materialized(self):
        rows = rows_for(3)
        stream = self.make(rows, chunk_bytes=16)
        assert stream.read_all() == materialized(rows)
        assert stream.exhausted and stream.closed and stream.error is None

    def test_close_hooks_fire_exactly_once(self):
        fired = []
        stream = self.make(rows_for(3))
        stream.on_close(lambda s, err: fired.append(err))
        stream.read_all()
        stream.close()
        stream.close()
        assert fired == [None]

    def test_hook_after_finish_fires_immediately(self):
        stream = self.make(rows_for(1))
        stream.read_all()
        fired = []
        stream.on_close(lambda s, err: fired.append(err))
        assert fired == [None]

    def test_next_after_close_raises_stopiteration(self):
        stream = self.make(rows_for(10), chunk_bytes=8)
        next(stream)
        stream.close()
        with pytest.raises(StopIteration):
            next(stream)
        assert not stream.exhausted  # abandoned, not drained

    def test_error_captured_and_passed_to_hooks(self):
        def broken():
            yield from rows_for(2)
            raise ReproError("row source failed")

        stream = self.make(broken(), chunk_bytes=8)
        fired = []
        stream.on_close(lambda s, err: fired.append(err))
        with pytest.raises(ReproError):
            stream.read_all()
        assert isinstance(stream.error, ReproError)
        assert fired == [stream.error]

    def test_context_manager_closes(self):
        with self.make(rows_for(10), chunk_bytes=8) as stream:
            next(stream)
        assert stream.closed


NASTY_ALPHABET = "a&<>\"']\r\n\t\x00\x01\x1f\x7fé中\U0001f600 ]>"


class TestEscapeText:
    @pytest.mark.parametrize("value", NASTY_VALUES, ids=repr)
    def test_nasty_values_parse_and_round_trip(self, value):
        document = f"<t>{escape_text(value)}</t>"
        parsed = ET.fromstring(document)
        assert (parsed.text or "") == sanitize_parsed_text(value)

    def test_random_strings_parse_and_round_trip(self):
        rng = random.Random(20260808)
        for _ in range(300):
            value = "".join(
                rng.choice(NASTY_ALPHABET)
                for _ in range(rng.randrange(0, 24))
            )
            document = f"<t>{escape_text(value)}</t>"
            parsed = ET.fromstring(document)
            assert (parsed.text or "") == sanitize_parsed_text(value)

    def test_cdata_close_cannot_appear_literally(self):
        assert "]]>" not in escape_text("a]]>b")

    def test_carriage_return_survives_parsing(self):
        # A literal \r would be normalized to \n by any conforming parser.
        escaped = escape_text("a\rb")
        assert escaped == "a&#13;b"
        assert ET.fromstring(f"<t>{escaped}</t>").text == "a\rb"

    def test_illegal_controls_become_replacement_char(self):
        assert escape_text("a\x00b\x01c") == "a�b�c"
        # Legal whitespace controls pass through.
        assert escape_text("a\tb\nc") == "a\tb\nc"

    def test_non_string_scalars(self):
        assert escape_text(None) == "NULL"
        assert escape_text(True) == "TRUE"
        assert escape_text(False) == "FALSE"
        assert escape_text(12) == "12"
        assert escape_text(2.5) == "2.5"
        assert escape_text(55.0) == "55"  # integral floats print as ints


def _correlated_view():
    """The supplier view whose part query keeps each part through a
    scalar subquery correlated on the outer row: the same document from a
    plan with a correlated apply, which the compiler leaves on the row
    iterators."""
    view = tpch_supplier_view()
    edge = view.node.children[0]
    part = dataclasses.replace(
        edge.node,
        query=(
            "select ps_suppkey, p_partkey, p_name, p_retailprice "
            "from partsupp, part o where ps_partkey = o.p_partkey "
            "and o.p_retailprice = (select max(q.p_retailprice) from part q "
            "where q.p_partkey = o.p_partkey)"
        ),
    )
    edge = dataclasses.replace(edge, node=part)
    node = dataclasses.replace(view.node, children=(edge,))
    return dataclasses.replace(view, node=node)


#: What feeds the root loop: ``vector`` compiles the whole plan;
#: ``volcano`` plans a correlated apply, which the compiler leaves on the
#: row iterators, so the rows under the root arrive through
#: ``PhysicalOperator.execute``. Neither the loop nor the tagger may care.
VIEWS = {"volcano": _correlated_view, "vector": tpch_supplier_view}


class TestRowBudgetAtTheRoot:
    """``max_rows`` through the per-batch root loop: exactly the first
    ``max_rows`` rows reach the tagger before the typed error."""

    def test_correlated_apply_runs_on_the_row_iterators(self, xml_db):
        for formulation in FORMULATIONS:
            documents = set()
            for root, make_view in VIEWS.items():
                view = make_view()
                sql = translate_xquery(Q1, view, xml_db.catalog).sql_for(formulation)
                notes = xml_db.sql(sql, explain="plan").fallbacks
                assert bool(notes) == (root == "volcano"), (formulation, root)
                documents.add(xml_db.publish(view, Q1, formulation).read_all())
            assert len(documents) == 1, formulation

    @pytest.mark.parametrize("root", VIEWS)
    @pytest.mark.parametrize("max_rows", [0, 1, 4, 5, 11])
    def test_exactly_max_rows_reach_the_tagger(self, xml_db, root, max_rows):
        view = VIEWS[root]()
        # Batches of 4, so budgets fall before, on and between boundaries.
        small = PlannerOptions(vector_batch_size=4)
        whole = xml_db.publish(view, Q1, "union", planner_options=small)
        whole.read_all()
        assert whole.stats.rows_in > 11
        governor = Governor(Budget(max_rows=max_rows))
        ticks = []
        tick_output = governor.tick_output
        governor.tick_output = lambda n=1: (ticks.append(n), tick_output(n))
        stream = xml_db.publish(
            view, Q1, "union", planner_options=small, governor=governor,
        )
        with pytest.raises(RowBudgetExceeded):
            stream.read_all()
        assert stream.stats.rows_in == max_rows
        assert isinstance(stream.error, RowBudgetExceeded)
        # One tick per root batch, the last of them the one that crossed.
        assert ticks == [4] * (max_rows // 4 + 1)

    @pytest.mark.parametrize("root", VIEWS)
    def test_budget_equal_to_the_result_is_not_an_error(self, xml_db, root):
        view = VIEWS[root]()
        whole = xml_db.publish(view, Q1, "gapply")
        document = whole.read_all()
        exact = xml_db.publish(view, Q1, "gapply", max_rows=whole.stats.rows_in)
        assert exact.read_all() == document
        assert exact.governor.output_rows == whole.stats.rows_in


PUBLISH_CASES = [
    pytest.param(query, formulation, id=f"{name}-{formulation}")
    for name, query in (("q1", Q1), ("q2", Q2))
    for formulation in FORMULATIONS
]


class TestPublishThroughPlanCache:
    """``Database.publish`` is a plan-cache client like ``Database.sql``."""

    @pytest.mark.parametrize("query, formulation", PUBLISH_CASES)
    def test_second_publish_is_a_hit_without_optimizing(
        self, xml_db, optimizer_runs, query, formulation
    ):
        view = tpch_supplier_view()
        first = xml_db.publish(view, query, formulation).read_all()
        assert len(optimizer_runs) == 1
        before = xml_db.plan_cache.stats()
        second = xml_db.publish(view, query, formulation).read_all()
        after = xml_db.plan_cache.stats()
        assert len(optimizer_runs) == 1
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]
        assert second == first

    @pytest.mark.parametrize("query, formulation", PUBLISH_CASES)
    def test_cached_documents_match_an_uncached_twin(
        self, xml_db, query, formulation
    ):
        view = tpch_supplier_view()
        twin = Database(xml_db.catalog, plan_cache=None)
        for chunk_bytes in (1, 64, DEFAULT_CHUNK_BYTES):
            expected = twin.publish(view, query, formulation).read_all()
            for _ in range(2):  # a miss (first size only), then hits
                cached = xml_db.publish(
                    view, query, formulation, chunk_bytes=chunk_bytes
                )
                assert cached.read_all() == expected
        wide = xml_db.publish(view, query, formulation, encoding="utf-16")
        assert wide.read_all().decode("utf-16") == expected.decode("utf-8")
        # One entry served every chunk size and both encodings.
        assert len(xml_db.plan_cache) == 1
        assert xml_db.plan_cache.stats()["misses"] == 1

    @pytest.mark.parametrize("query, formulation", PUBLISH_CASES)
    def test_insert_between_publishes_is_a_miss_at_the_new_version(
        self, xml_db, optimizer_runs, query, formulation
    ):
        view = tpch_supplier_view()
        before = xml_db.publish(view, query, formulation).read_all()
        xml_db.catalog.insert_rows("part", [(13, "part13", 130.0)])
        xml_db.catalog.insert_rows("partsupp", [(100, 13)])
        after = xml_db.publish(view, query, formulation).read_all()
        assert len(optimizer_runs) == 2
        assert xml_db.plan_cache.stats()["misses"] == 2
        assert after != before
        twin = Database(xml_db.catalog, plan_cache=None)
        assert after == twin.publish(view, query, formulation).read_all()
        # An abandoned stream and a failed one are hits on the new entry.
        with xml_db.publish(view, query, formulation, chunk_bytes=1) as stream:
            next(stream)
        assert not stream.exhausted
        failing = xml_db.publish(view, query, formulation, max_rows=1)
        with pytest.raises(RowBudgetExceeded):
            failing.read_all()
        (entry,) = xml_db.plan_cache.entries()
        assert entry.hits == 2
