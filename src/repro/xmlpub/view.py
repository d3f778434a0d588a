"""XML view definitions over relational data.

The representation follows [1] (as used in the paper's Figure 1): a schema
tree whose nodes carry SQL queries, with child nodes *correlated* to their
parent through binding variables. Figure 1's view reads, in this API::

    supplier_view = XmlView(
        root_tag="suppliers",
        node=XmlViewNode(
            tag="supplier",
            query="select s_suppkey, s_name from supplier",
            key=("s_suppkey",),
            fields=(XmlField("s_suppkey"), XmlField("s_name")),
            children=(
                XmlChildEdge(
                    node=XmlViewNode(
                        tag="part",
                        query=(
                            "select ps_suppkey, p_partkey, p_name, "
                            "p_retailprice from partsupp, part "
                            "where ps_partkey = p_partkey"
                        ),
                        key=("p_partkey",),
                        fields=(XmlField("p_name"), XmlField("p_retailprice")),
                    ),
                    parent_columns=("s_suppkey",),
                    child_columns=("ps_suppkey",),
                ),
            ),
        ),
    )

The child's correlation to the parent binding variable ``$s`` is expressed
declaratively: ``child_columns`` of the child query equal
``parent_columns`` of the parent element's row.

The paper assumes an unordered XML model (Section 2), but XML is ordered:
a published view's top-level elements appear in **key order** (DESIGN.md
§7), so views carry no sibling-order annotations beyond their keys.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import XmlPublishError


@dataclass(frozen=True)
class XmlField:
    """One mapped column: relational column -> XML sub-element (or
    attribute when ``attribute`` is True)."""

    column: str
    xml_name: str | None = None
    attribute: bool = False

    @property
    def tag(self) -> str:
        return self.xml_name or self.column


@dataclass(frozen=True)
class XmlChildEdge:
    """Nesting edge: how child elements attach under a parent element."""

    node: "XmlViewNode"
    parent_columns: tuple[str, ...]
    child_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.parent_columns) != len(self.child_columns):
            raise XmlPublishError(
                "parent/child correlation column lists differ in length: "
                f"{self.parent_columns} vs {self.child_columns}"
            )


@dataclass(frozen=True)
class XmlViewNode:
    """One element type of the view: a tag, its SQL query, its identity
    key, its mapped fields, and its nested children."""

    tag: str
    query: str
    key: tuple[str, ...]
    fields: tuple[XmlField, ...] = ()
    children: tuple[XmlChildEdge, ...] = ()

    def __post_init__(self) -> None:
        if not self.key:
            raise XmlPublishError(f"view node {self.tag!r} needs a key")
        tags = [f.tag for f in self.fields] + [
            edge.node.tag for edge in self.children
        ]
        if len(set(tags)) != len(tags):
            raise XmlPublishError(
                f"duplicate field/child tags under {self.tag!r}: {tags}"
            )

    def child(self, tag: str) -> XmlChildEdge:
        for edge in self.children:
            if edge.node.tag == tag:
                return edge
        raise XmlPublishError(
            f"element {self.tag!r} has no child {tag!r}; children: "
            + ", ".join(e.node.tag for e in self.children)
        )

    def field(self, name: str) -> XmlField:
        for f in self.fields:
            if f.tag == name or f.column == name:
                return f
        raise XmlPublishError(
            f"element {self.tag!r} has no field {name!r}; fields: "
            + ", ".join(f.tag for f in self.fields)
        )

    def has_child(self, tag: str) -> bool:
        return any(edge.node.tag == tag for edge in self.children)

    def has_field(self, name: str) -> bool:
        return any(f.tag == name or f.column == name for f in self.fields)


@dataclass(frozen=True)
class XmlView:
    """A whole view: a document root tag wrapping one top element type."""

    root_tag: str
    node: XmlViewNode

    def resolve_path(self, steps: tuple[str, ...]) -> XmlViewNode:
        """Resolve a path of child tags starting below the top node."""
        current = self.node
        for step in steps:
            current = current.child(step).node
        return current


def tpch_supplier_view() -> XmlView:
    """The paper's Figure 1 view: suppliers with nested parts."""
    part_node = XmlViewNode(
        tag="part",
        query=(
            "select ps_suppkey, p_partkey, p_name, p_retailprice "
            "from partsupp, part where ps_partkey = p_partkey"
        ),
        key=("p_partkey",),
        fields=(
            XmlField("p_name"),
            XmlField("p_retailprice"),
        ),
    )
    supplier_node = XmlViewNode(
        tag="supplier",
        query="select s_suppkey, s_name from supplier",
        key=("s_suppkey",),
        fields=(
            XmlField("s_suppkey"),
            XmlField("s_name"),
        ),
        children=(
            XmlChildEdge(
                node=part_node,
                parent_columns=("s_suppkey",),
                child_columns=("ps_suppkey",),
            ),
        ),
    )
    return XmlView(root_tag="suppliers", node=supplier_node)
