"""Unit tests for the constant-space tagger."""

import pytest

from repro.errors import XmlPublishError
from repro.xmlpub.tagger import (
    ConstantSpaceTagger,
    KeyItem,
    RowsBranch,
    ScalarBranch,
    TaggerSpec,
    escape_text,
)

from tests.xmlpub.reference_tagger import reference_tag


def q1_spec() -> TaggerSpec:
    """Key + one rows branch (with container) + one scalar branch."""
    return TaggerSpec(
        root_tag="result",
        group_tag="ret",
        key_count=1,
        key_items=(KeyItem("s_suppkey", 0),),
        branches=(
            RowsBranch(0, "parts", "part", (("p_name", 0), ("p_price", 1))),
            ScalarBranch(1, "avgprice", 2),
        ),
    )


# rows: [key, branch, payload0, payload1, payload2]
Q1_ROWS = [
    (100, 0, "bolt", 10.0, None),
    (100, 0, "nut", 20.0, None),
    (100, 1, None, None, 15.0),
    (200, 0, "washer", 30.0, None),
    (200, 1, None, None, 30.0),
]


class TestTagging:
    def test_document_structure(self):
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(Q1_ROWS)
        assert xml.startswith("<result>")
        assert xml.endswith("</result>")
        assert xml.count("<ret>") == 2
        assert xml.count("</ret>") == 2
        assert xml.count("<part>") == 3

    def test_key_items_rendered_once_per_group(self):
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(Q1_ROWS)
        assert xml.count("<s_suppkey>100</s_suppkey>") == 1
        assert xml.count("<s_suppkey>200</s_suppkey>") == 1

    def test_container_wraps_rows(self):
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(Q1_ROWS)
        first = xml[xml.index("<ret>") : xml.index("</ret>")]
        assert "<parts><part>" in first
        assert first.count("</parts>") == 1

    def test_scalar_branch(self):
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(Q1_ROWS)
        assert "<avgprice>15</avgprice>" in xml
        assert "<avgprice>30</avgprice>" in xml

    def test_scalar_closes_open_container(self):
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(Q1_ROWS)
        # </parts> must appear before <avgprice>
        assert xml.index("</parts>") < xml.index("<avgprice>")

    def test_empty_stream(self):
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string([])
        assert xml == "<result></result>"

    def test_branchless_group_boundary(self):
        rows = [(1, 1, None, None, 5.0), (2, 1, None, None, 6.0)]
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(rows)
        assert xml.count("<ret>") == 2

    def test_unknown_branch_rejected(self):
        with pytest.raises(XmlPublishError):
            ConstantSpaceTagger(q1_spec()).tag_to_string([(1, 99, None, None, None)])

    def test_unknown_branch_raises_after_the_fragments_before_it(self):
        rows = Q1_ROWS[:2] + [(100, 99, None, None, None)] + Q1_ROWS[2:]

        def until_error(fragments):
            seen = []
            with pytest.raises(XmlPublishError, match="unknown branch id 99"):
                for fragment in fragments:
                    seen.append(fragment)
            return seen

        seen = until_error(ConstantSpaceTagger(q1_spec()).tag(rows))
        assert seen == until_error(reference_tag(q1_spec(), rows))
        assert seen[-1] == "<part><p_name>nut</p_name><p_price>20</p_price></part>"

    def test_bool_and_number_keys_are_different_groups(self):
        rows = [(1, 1, None, None, 1.0), (True, 1, None, None, 2.0),
                (None, 1, None, None, 3.0), (None, 1, None, None, 4.0)]
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(rows)
        assert xml.count("<ret>") == 3  # 1, TRUE, and one NULL group
        assert xml == "".join(reference_tag(q1_spec(), rows))

    def test_null_key_is_a_group(self):
        rows = [(None, 1, None, None, 1.0)]
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(rows)
        assert "<s_suppkey>NULL</s_suppkey>" in xml

    def test_streaming_chunks(self):
        chunks = list(ConstantSpaceTagger(q1_spec()).tag(Q1_ROWS))
        assert chunks[0] == "<result>"
        assert chunks[-1] == "</result>"

    def test_balanced_tags(self):
        import re

        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(Q1_ROWS)
        stack = []
        for match in re.finditer(r"<(/?)([a-zA-Z_][\w.-]*)>", xml):
            closing, tag = match.groups()
            if closing:
                assert stack and stack[-1] == tag, f"unbalanced </{tag}>"
                stack.pop()
            else:
                stack.append(tag)
        assert stack == []


class TestEscaping:
    def test_special_characters(self):
        assert escape_text("a<b&c>d") == "a&lt;b&amp;c&gt;d"

    def test_null(self):
        assert escape_text(None) == "NULL"

    def test_escaped_in_document(self):
        rows = [(1, 0, "<&>", 1.0, None)]
        xml = ConstantSpaceTagger(q1_spec()).tag_to_string(rows)
        assert "<p_name>&lt;&amp;&gt;</p_name>" in xml


class TestSpecValidation:
    def test_duplicate_branch_ids_rejected(self):
        with pytest.raises(XmlPublishError):
            TaggerSpec(
                root_tag="r",
                group_tag="g",
                key_count=1,
                key_items=(),
                branches=(
                    ScalarBranch(0, "a", 0),
                    ScalarBranch(0, "b", 1),
                ),
            )

    def test_branch_column_position(self):
        assert q1_spec().branch_column == 1

    def test_indented_output_parses(self):
        tagger = ConstantSpaceTagger(q1_spec(), indent=True)
        text = tagger.tag_to_string(Q1_ROWS)
        assert "<result>" in text and "\n" in text
