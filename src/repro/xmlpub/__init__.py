"""XML publishing: views, XQuery subset, translation, constant-space
tagging."""

from repro.xmlpub.stream import (
    DEFAULT_CHUNK_BYTES,
    PublishStats,
    XmlChunkStream,
    stream_document,
    stream_slices,
)
from repro.xmlpub.tagger import (
    ConstantSpaceTagger,
    KeyItem,
    RowsBranch,
    ScalarBranch,
    TaggerSpec,
    escape_text,
    sanitize_parsed_text,
)
from repro.xmlpub.translate import (
    FORMULATIONS,
    TranslatedQuery,
    Translator,
    translate_xquery,
)
from repro.xmlpub.view import (
    XmlChildEdge,
    XmlField,
    XmlView,
    XmlViewNode,
    tpch_supplier_view,
)
from repro.xmlpub.xquery import (
    XqAggregate,
    XqArith,
    XqComparison,
    XqElement,
    XqFlwr,
    XqLiteral,
    XqPath,
    XqSome,
    parse_xquery,
)

__all__ = [
    "ConstantSpaceTagger",
    "DEFAULT_CHUNK_BYTES",
    "FORMULATIONS",
    "KeyItem",
    "PublishStats",
    "XmlChunkStream",
    "RowsBranch",
    "ScalarBranch",
    "TaggerSpec",
    "TranslatedQuery",
    "Translator",
    "XmlChildEdge",
    "XmlField",
    "XmlView",
    "XmlViewNode",
    "XqAggregate",
    "XqArith",
    "XqComparison",
    "XqElement",
    "XqFlwr",
    "XqLiteral",
    "XqPath",
    "XqSome",
    "escape_text",
    "parse_xquery",
    "sanitize_parsed_text",
    "stream_document",
    "stream_slices",
    "tpch_supplier_view",
    "translate_xquery",
]
