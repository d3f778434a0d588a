"""Property-based tests for the constant-space tagger.

Invariants: well-formed (balanced) documents for arbitrary clustered row
streams; group count equals distinct key count; text is always escaped;
and, for random specs and hostile values, the slice-at-a-time tagger
yields exactly the fragments of the row-at-a-time reference
(:mod:`tests.xmlpub.reference_tagger`) however the rows are sliced.
"""

import datetime
import re
import xml.parsers.expat

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.vector.batch import row_slices
from repro.storage.types import grouping_key
from repro.xmlpub import stream_slices
from repro.xmlpub.tagger import (
    ConstantSpaceTagger,
    KeyItem,
    RowsBranch,
    ScalarBranch,
    TaggerSpec,
    escape_text,
)

from tests.xmlpub.reference_tagger import reference_escape_text, reference_tag

SPEC = TaggerSpec(
    root_tag="doc",
    group_tag="grp",
    key_count=1,
    key_items=(KeyItem("id", 0),),
    branches=(
        RowsBranch(0, "items", "item", (("a", 0), ("b", 1))),
        ScalarBranch(1, "total", 0),
        RowsBranch(2, None, "bare", (("c", 1),)),
    ),
)

payload = st.one_of(
    st.none(),
    st.integers(min_value=-9, max_value=9),
    st.text(alphabet="x<&>'\"", max_size=4),
)


@st.composite
def clustered_rows(draw):
    """Rows clustered by key with branch ids ascending within each group."""
    rows = []
    key_count = draw(st.integers(min_value=0, max_value=6))
    for key in range(key_count):
        branches = sorted(
            draw(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=5))
        )
        for branch in branches:
            rows.append((key, branch, draw(payload), draw(payload)))
    return rows


def tags_balanced(xml: str) -> bool:
    stack = []
    for match in re.finditer(r"<(/?)([a-zA-Z_][\w.-]*)>", xml):
        closing, tag = match.groups()
        if closing:
            if not stack or stack[-1] != tag:
                return False
            stack.pop()
        else:
            stack.append(tag)
    return not stack


class TestTaggerInvariants:
    @given(rows=clustered_rows())
    @settings(max_examples=80, deadline=None)
    def test_document_is_balanced(self, rows):
        xml = ConstantSpaceTagger(SPEC).tag_to_string(rows)
        assert tags_balanced(xml)

    @given(rows=clustered_rows())
    @settings(max_examples=80, deadline=None)
    def test_group_count_matches_distinct_keys(self, rows):
        xml = ConstantSpaceTagger(SPEC).tag_to_string(rows)
        distinct = len({grouping_key((row[0],)) for row in rows})
        assert xml.count("<grp>") == distinct
        assert xml.count("</grp>") == distinct

    @given(rows=clustered_rows())
    @settings(max_examples=80, deadline=None)
    def test_no_raw_angle_brackets_in_text(self, rows):
        xml = ConstantSpaceTagger(SPEC).tag_to_string(rows)
        # strip all tags; remaining text must not contain raw < or >
        text = re.sub(r"<[^>]*>", "\x00", xml)
        assert "<" not in text and ">" not in text

    @given(rows=clustered_rows())
    @settings(max_examples=40, deadline=None)
    def test_row_elements_preserved(self, rows):
        xml = ConstantSpaceTagger(SPEC).tag_to_string(rows)
        expected_items = sum(1 for row in rows if row[1] == 0)
        assert xml.count("<item>") == expected_items

    @given(rows=clustered_rows())
    @settings(max_examples=40, deadline=None)
    def test_streaming_equals_batch(self, rows):
        tagger = ConstantSpaceTagger(SPEC)
        assert "".join(tagger.tag(rows)) == tagger.tag_to_string(rows)


# ----------------------------------------------------------------------
# Against the row-at-a-time reference
# ----------------------------------------------------------------------

hostile_text = st.text(
    alphabet=st.sampled_from("ab<>&]\"'\r\n\t\x00\x01\x0b\x1f\x7f\u00e9\u4e2d "),
    max_size=8,
)
value = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 1, 1)),
    hostile_text,
    st.just("]]>"),
)
#: Keys that must cluster (NULL) or must not (True vs 1 vs 1.0, 0 vs False).
key_value = st.sampled_from([None, True, False, 0, 1, 1.0, 2, "k", "<k>"])
tag_name = st.sampled_from(["a", "b", "row", "items", "x-y", "n.1"])


@st.composite
def spec_and_rows(draw):
    key_count = draw(st.integers(min_value=0, max_value=2))
    payload_width = draw(st.integers(min_value=1, max_value=3))
    index = st.integers(min_value=0, max_value=payload_width - 1)
    branches = []
    for branch_id in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            branches.append(ScalarBranch(branch_id, draw(tag_name), draw(index)))
        else:
            fields = draw(st.lists(st.tuples(tag_name, index), max_size=3))
            branches.append(
                RowsBranch(
                    branch_id,
                    draw(st.one_of(st.none(), tag_name)),
                    draw(tag_name),
                    tuple(fields),
                )
            )
    spec = TaggerSpec(
        root_tag="doc",
        group_tag="grp",
        key_count=key_count,
        key_items=tuple(
            KeyItem(draw(tag_name), position)
            for position in draw(
                st.lists(st.integers(0, key_count - 1), max_size=2)
                if key_count
                else st.just([])
            )
        ),
        branches=tuple(branches),
    )
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        key = tuple(draw(key_value) for _ in range(key_count))
        for branch in sorted(
            draw(st.lists(st.sampled_from(branches), max_size=4)),
            key=lambda b: b.branch,
        ):
            payload = tuple(draw(value) for _ in range(payload_width))
            rows.append(key + (branch.branch,) + payload)
    return spec, rows


def parses_cleanly(document: str) -> bool:
    parser = xml.parsers.expat.ParserCreate()
    parser.Parse(document.encode("utf-8"), True)
    return True


class TestAgainstTheReference:
    @given(case=spec_and_rows(), size=st.sampled_from([1, 3, 1024]))
    @settings(max_examples=300, deadline=None)
    def test_same_fragments_however_the_rows_are_sliced(self, case, size):
        spec, rows = case
        expected = list(reference_tag(spec, rows))
        tagger = ConstantSpaceTagger(spec)
        sliced = [
            fragment
            for fragments in tagger.fragments(row_slices(rows, size))
            for fragment in fragments
        ]
        assert sliced == expected
        assert list(tagger.tag(rows)) == expected
        assert parses_cleanly("".join(expected))

    @given(
        case=spec_and_rows(),
        size=st.sampled_from([1, 3, 1024]),
        chunk_bytes=st.sampled_from([1, 7, 64, 1 << 16]),
    )
    @settings(max_examples=150, deadline=None)
    def test_chunks_end_where_a_fragment_loop_ends_them(
        self, case, size, chunk_bytes
    ):
        spec, rows = case
        expected, pending = [], ""
        for fragment in reference_tag(spec, rows):
            pending += fragment
            if len(pending) >= chunk_bytes:
                expected.append(pending.encode("utf-8"))
                pending = ""
        if pending:
            expected.append(pending.encode("utf-8"))
        chunks = stream_slices(
            row_slices(rows, size), spec, chunk_bytes=chunk_bytes
        )
        assert list(chunks) == expected

    @given(value=st.one_of(value, st.text(max_size=30)))
    @settings(max_examples=500, deadline=None)
    def test_escape_text_is_the_old_composition(self, value):
        assert escape_text(value) == reference_escape_text(value)
