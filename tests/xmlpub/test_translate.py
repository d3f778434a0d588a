"""Integration tests for the XQuery -> SQL translator.

The central claim: for every supported query, the sorted-outer-union
formulation and the gapply formulation publish the same document, byte
for byte: group elements in key order (DESIGN.md §7), and a group element
exactly for each key with a child row.
"""

import pytest

from repro.api import Database
from repro.errors import XmlPublishError
from repro.storage import DataType
from repro.xmlpub import (
    ConstantSpaceTagger,
    Translator,
    tpch_supplier_view,
    translate_xquery,
)

from tests.xmlpub.queries import AGS, GS, Q1, Q2, Q3


def roundtrip(db: Database, query: str):
    translated = translate_xquery(query, tpch_supplier_view(), db.catalog)
    union_rows = db.sql(translated.outer_union_sql).rows
    gapply_rows = db.sql(translated.gapply_sql).rows
    tagger = ConstantSpaceTagger(translated.spec)
    return (
        tagger.tag_to_string(union_rows),
        tagger.tag_to_string(gapply_rows),
        translated,
    )


class TestEquivalence:
    @pytest.mark.parametrize(
        "query",
        [Q1, Q2, Q3, GS, AGS],
        ids=["q1", "q2", "q3", "group-selection", "aggregate-selection"],
    )
    def test_both_formulations_publish_same_document(self, xml_db, query):
        union_xml, gapply_xml, _ = roundtrip(xml_db, query)
        assert union_xml == gapply_xml
        assert "<s_suppkey>" in union_xml  # non-empty result


class TestQ1Details:
    def test_document_content(self, xml_db):
        union_xml, _, _ = roundtrip(xml_db, Q1)
        # supplier 101 supplies parts 1,4,7,10 -> avg 55
        assert "<avg_p_retailprice>55</avg_p_retailprice>" in union_xml
        assert "<part><p_name>part1</p_name>" in union_xml

    def test_gapply_sql_uses_extension_syntax(self, xml_db):
        translated = translate_xquery(Q1, tpch_supplier_view(), xml_db.catalog)
        assert "gapply(" in translated.gapply_sql
        assert ": g" in translated.gapply_sql

    def test_union_sql_is_ordered(self, xml_db):
        translated = translate_xquery(Q1, tpch_supplier_view(), xml_db.catalog)
        assert "order by gkey, branch" in translated.outer_union_sql

    def test_payload_is_disjoint_outer_union(self, xml_db):
        translated = translate_xquery(Q1, tpch_supplier_view(), xml_db.catalog)
        # nested-for needs 2 columns, aggregate 1 -> combined width 3
        assert translated.payload_width == 3


class TestGroupSelectionDetails:
    def test_only_qualifying_suppliers_published(self, xml_db):
        union_xml, _, _ = roundtrip(xml_db, GS)
        # parts with price > 90: 10, 11, 12 -> suppliers 101, 102, 100
        assert union_xml.count("<supplier>") == 3
        union_xml, _, _ = roundtrip(xml_db, GS.replace("> 90", "> 110"))
        # only part 12 (price 120) -> supplier 100
        assert union_xml.count("<supplier>") == 1
        assert "<s_suppkey>100</s_suppkey>" in union_xml

    def test_aggregate_selection_threshold(self, xml_db):
        union_xml, _, _ = roundtrip(xml_db, AGS)
        # averages: 100 -> 75, 101 -> 55, 102 -> 65 ; > 60 keeps 100 and 102
        assert union_xml.count("<supplier>") == 2


class TestErrors:
    def test_wrong_view_path(self, xml_db):
        with pytest.raises(XmlPublishError):
            translate_xquery(
                "for $s in /doc(x)/wrong/path return $s",
                tpch_supplier_view(),
                xml_db.catalog,
            )

    def test_where_with_constructor_unsupported(self, xml_db):
        with pytest.raises(XmlPublishError):
            translate_xquery(
                "for $s in /doc(t)/suppliers/supplier "
                "where avg($s/part/p_retailprice) > 1 "
                "return <r> $s/s_suppkey </r>",
                tpch_supplier_view(),
                xml_db.catalog,
            )

    def test_whole_subtree_without_where_rejected(self, xml_db):
        with pytest.raises(XmlPublishError):
            translate_xquery(
                "for $s in /doc(t)/suppliers/supplier return $s",
                tpch_supplier_view(),
                xml_db.catalog,
            )

    def test_unknown_field_in_nested_return(self, xml_db):
        with pytest.raises(XmlPublishError):
            translate_xquery(
                "for $s in /doc(t)/suppliers/supplier return <r> "
                "<ps> for $p in $s/part return <q> $p/p_nonexistent </q> </ps> </r>",
                tpch_supplier_view(),
                xml_db.catalog,
            )

    def test_node_columns_helper(self, xml_db):
        translator = Translator(tpch_supplier_view(), xml_db.catalog)
        columns = translator.node_columns(tpch_supplier_view().node)
        assert columns == ["s_suppkey", "s_name"]


PARENT_FIELDS = (
    "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> $s/s_suppkey, "
    "$s/s_name, <parts> for $p in $s/part return <part> $p/p_name </part> "
    "</parts>, avg($s/part/p_retailprice) </ret>"
)


class TestParentFields:
    def test_parent_field_requires_parent_join(self, xml_db):
        translated = translate_xquery(
            PARENT_FIELDS, tpch_supplier_view(), xml_db.catalog
        )
        # the gapply outer query now joins the supplier node's query
        assert "psrc" in translated.gapply_sql
        assert "from supplier" in translated.gapply_sql

    def test_parent_field_roundtrip(self, xml_db):
        union_xml, gapply_xml, _ = roundtrip(xml_db, PARENT_FIELDS)
        assert union_xml == gapply_xml

    def test_parent_field_rendered_once_per_group(self, xml_db):
        _, gapply_xml, _ = roundtrip(xml_db, PARENT_FIELDS)
        assert gapply_xml.count("<s_name>supp1</s_name>") == 1


@pytest.fixture
def sparse_db() -> Database:
    """Supplier 101's one part equals its average, so none is below it;
    supplier 102 has no parts."""
    db = Database()
    db.create_table(
        "part",
        [
            ("p_partkey", DataType.INTEGER),
            ("p_name", DataType.STRING),
            ("p_retailprice", DataType.FLOAT),
        ],
        [(1, "part1", 10.0), (2, "part2", 20.0), (3, "part3", 30.0)],
        primary_key=["p_partkey"],
    )
    db.create_table(
        "partsupp",
        [("ps_suppkey", DataType.INTEGER), ("ps_partkey", DataType.INTEGER)],
        [(100, 1), (100, 2), (101, 3)],
    )
    db.create_table(
        "supplier",
        [("s_suppkey", DataType.INTEGER), ("s_name", DataType.STRING)],
        [(100, "supp0"), (101, "supp1"), (102, "supp2")],
        primary_key=["s_suppkey"],
    )
    return db


class TestOneGroupPerKeyWithChildRows:
    """A group element exists iff its key has a child row, and carries
    every return item, under both formulations."""

    def test_count_of_no_passing_rows_is_zero(self, sparse_db):
        union_xml, gapply_xml, _ = roundtrip(sparse_db, Q2)
        # count(()) = 0: grouping the filtered join would drop the element
        assert (
            "<ret><s_suppkey>101</s_suppkey><count_above>1</count_above>"
            "<count_below>0</count_below></ret>"
        ) in union_xml
        assert union_xml == gapply_xml

    def test_parent_without_child_rows_has_no_group(self, sparse_db):
        union_xml, gapply_xml, _ = roundtrip(sparse_db, PARENT_FIELDS)
        assert "<s_suppkey>101</s_suppkey><s_name>supp1</s_name>" in union_xml
        assert "<s_suppkey>102</s_suppkey>" not in union_xml
        assert union_xml == gapply_xml
