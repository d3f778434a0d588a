"""Golden-document conformance: byte-for-byte XML for every paper query.

Each of the five supported XQueries is published under both SQL
formulations (sorted outer union and GApply), with GApply's partition
phase in memory and spilled, through the *streaming* path
(:meth:`Database.publish`, the compiled plan) and again from the rows
the row-iterator reference yields for the same SQL, and compared
byte-for-byte against

* one checked-in golden snapshot per query under
  ``tests/snapshots/xml`` — so any change to translation, execution
  order, escaping, or tagging shows up as a reviewable XML diff
  (regenerate with ``pytest --update-snapshots``); and
* the materialized reference (``db.sql`` + ``tag_to_string``) — so
  streaming is provably a pure re-framing of the same document.

One snapshot per query: the document order is key order (DESIGN.md §7),
so every formulation, partition phase and row source must publish the
same bytes, which is itself part of the conformance claim.
"""

from pathlib import Path

import pytest

from repro.fuzz.oracle import reference_rows
from repro.optimizer.planner import PlannerOptions
from repro.xmlpub import (
    FORMULATIONS,
    ConstantSpaceTagger,
    stream_document,
    tpch_supplier_view,
    translate_xquery,
)

from tests.xmlpub.queries import PAPER_QUERIES

SNAPSHOT_DIR = Path(__file__).resolve().parents[1] / "snapshots" / "xml"

CASES = [
    (name, query, formulation)
    for name, query, _tag in PAPER_QUERIES
    for formulation in FORMULATIONS
]


#: Cells GApply's partition buffer holds before the spilled pass flushes a
#: run: two rows of a four-column outer query, so every case spills.
GOLDEN_SPILL_THRESHOLD = 8


def _snapshot_path(name: str) -> Path:
    return SNAPSHOT_DIR / f"{name}.xml"


#: Where the document's rows come from: ``vector`` is ``Database.publish``
#: end to end; ``volcano`` streams the row-iterator reference's rows.
ROW_SOURCES = ("volcano", "vector")


@pytest.mark.parametrize("rows_from", ROW_SOURCES)
@pytest.mark.parametrize(
    "name, query, formulation",
    CASES,
    ids=[f"{name}-{formulation}" for name, _q, formulation in CASES],
)
def test_streamed_document_matches_golden(
    xml_db, update_snapshots, rows_from, name, query, formulation
):
    view = tpch_supplier_view()
    translated = translate_xquery(query, view, xml_db.catalog)
    sql = translated.sql_for(formulation)
    path = _snapshot_path(name)
    # GApply's partition phase hashes in memory and sorts externally
    # under a spill threshold: both must publish the golden bytes.
    for threshold in (None, GOLDEN_SPILL_THRESHOLD):
        options = PlannerOptions(gapply_spill_threshold=threshold)
        if rows_from == "vector":
            with xml_db.publish(
                view, query, formulation, planner_options=options
            ) as stream:
                streamed = stream.read_all()
            assert stream.exhausted and stream.error is None
            result = xml_db.sql(sql, planner_options=options)
            rows = result.rows
            if threshold is not None and formulation == "gapply":
                assert result.counters.spill_runs > 0
        else:
            rows = list(reference_rows(xml_db, sql, planner_options=options))
            streamed = b"".join(stream_document(rows, translated.spec))

        # Streaming must be a pure re-framing of the materialized document.
        materialized = ConstantSpaceTagger(translated.spec).tag_to_string(rows)
        assert streamed == materialized.encode("utf-8")

        if update_snapshots:
            SNAPSHOT_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(streamed.decode("utf-8"))
            continue
        assert path.exists(), (
            f"missing golden document {path.name}; run "
            "pytest --update-snapshots to (re)generate it"
        )
        assert streamed.decode("utf-8") == path.read_text(), (
            f"published XML diverged from {path.name} ({formulation}, "
            f"spill threshold {threshold}, rows from {rows_from}); if the "
            "change is intentional, regenerate with pytest --update-snapshots"
        )


@pytest.mark.parametrize(
    "name, query, formulation",
    CASES,
    ids=[f"{name}-{formulation}" for name, _q, formulation in CASES],
)
def test_chunk_size_never_changes_the_document(
    xml_db, name, query, formulation
):
    view = tpch_supplier_view()
    baseline = xml_db.publish(view, query, formulation).read_all()
    # A pathological 7-byte chunk size must re-frame, never re-write.
    rechunked = xml_db.publish(view, query, formulation, chunk_bytes=7)
    chunks = list(rechunked)
    assert all(chunk for chunk in chunks)
    assert b"".join(chunks) == baseline
    assert rechunked.stats.bytes_emitted == len(baseline)


def test_snapshots_have_no_strays(update_snapshots):
    if update_snapshots:
        pytest.skip("snapshot set is being rewritten")
    known = {f"{name}.xml" for name, _q, _tag in PAPER_QUERIES}
    present = {path.name for path in SNAPSHOT_DIR.glob("*.xml")}
    assert present == known
