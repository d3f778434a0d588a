"""XQuery-over-XML-view -> SQL translation, both ways the paper compares.

For one FLWR query over an :class:`~repro.xmlpub.view.XmlView` this module
produces:

* ``outer_union_sql`` — the classical *sorted outer union* formulation
  (Section 2): one UNION ALL branch per return item, each branch a
  standalone SQL query over the base tables (re-deriving the element's rows
  from the view node queries, with correlated subqueries for in-group
  aggregates), ordered by the group key so a constant-space tagger can
  consume it. This is "sorting and tagging".

* ``gapply_sql`` — the Section 3.1 formulation: one outer query deriving
  the element's rows *once*, ``group by key : g``, and a per-group query
  that unions the return items computed over the group variable.

Both produce the identical row layout ``[key, branch, payload...]``, in
key order (DESIGN.md §7: the outer union sorts on ``gkey, branch``,
GApply emits its groups in key order), and the same
:class:`~repro.xmlpub.tagger.TaggerSpec`, so the published documents are
byte-identical. Both emit a group exactly for each key with a child row.

Supported query class (everything in the paper):

* ``for $s in /doc(...)/<root>/<top>`` over the view's top node;
* optional ``where some $p in $s/<child> satisfies <cmp>`` or
  ``where agg($s/<child>/<col>) <cmp> <literal>`` (group selection);
* ``return <tag> items </tag>`` with items among: ``$s/<key field>``,
  parent fields, nested FLWR over ``$s/<child>`` (optionally with a path
  predicate), aggregates over child columns (optionally with a path
  predicate whose right side may itself be an aggregate over the group);
* ``return $s`` — the whole subtree (group selection queries).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import XmlPublishError
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.xmlpub.tagger import (
    Branch,
    KeyItem,
    RowsBranch,
    ScalarBranch,
    TaggerSpec,
)
from repro.xmlpub.view import XmlView, XmlViewNode
from repro.xmlpub.xquery import (
    XqAggregate,
    XqArith,
    XqComparison,
    XqElement,
    XqFlwr,
    XqLiteral,
    XqNode,
    XqPath,
    XqSome,
    parse_xquery,
)


#: The two SQL formulations every translated query carries — the paper's
#: sorted outer union ("union") vs. the GApply rewrite ("gapply").
FORMULATIONS = ("union", "gapply")


@dataclass(frozen=True)
class TranslatedQuery:
    """The two SQL formulations plus the shared tagging specification."""

    gapply_sql: str
    outer_union_sql: str
    spec: TaggerSpec
    payload_width: int

    def sql_for(self, formulation: str) -> str:
        """The SQL text for one of :data:`FORMULATIONS`."""
        if formulation == "gapply":
            return self.gapply_sql
        if formulation == "union":
            return self.outer_union_sql
        raise XmlPublishError(
            f"unknown formulation {formulation!r}; use one of {FORMULATIONS}"
        )


def _sql_literal(value: object) -> str:
    if value is None:
        return "null"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


class Translator:
    """Translate FLWR queries over one view against one catalog."""

    def __init__(self, view: XmlView, catalog: Catalog):
        self.view = view
        self.catalog = catalog
        self._binder = Binder(catalog)

    # ------------------------------------------------------------------
    # View-node plumbing
    # ------------------------------------------------------------------

    def node_schema(self, node: XmlViewNode) -> Schema:
        """Output schema of a view node's SQL query."""
        return self._binder.bind(parse(node.query)).schema

    def node_columns(self, node: XmlViewNode) -> list[str]:
        """Output column names of a view node's SQL query."""
        return [column.name for column in self.node_schema(node)]

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def translate(self, query: str | XqFlwr) -> TranslatedQuery:
        flwr = parse_xquery(query) if isinstance(query, str) else query
        steps = flwr.document_steps
        expected = (self.view.root_tag, self.view.node.tag)
        if steps != expected:
            raise XmlPublishError(
                f"query path {steps} does not match the view "
                f"({'/'.join(expected)})"
            )
        if isinstance(flwr.body, XqPath) and not flwr.body.steps:
            return self._translate_whole_subtree(flwr)
        if not isinstance(flwr.body, XqElement):
            raise XmlPublishError(
                "return must be an element constructor or the bound variable"
            )
        return self._translate_constructor(flwr)

    # ------------------------------------------------------------------
    # Item analysis
    # ------------------------------------------------------------------

    def _analyze_items(
        self, flwr: XqFlwr
    ) -> tuple[list[KeyItem], list[dict]]:
        """Split return items into key items and branch descriptors."""
        top = self.view.node
        element = flwr.body
        assert isinstance(element, XqElement)
        key_items: list[KeyItem] = []
        branch_specs: list[dict] = []
        for item in element.items:
            if isinstance(item, XqPath):
                if item.variable != flwr.variable or len(item.steps) != 1:
                    raise XmlPublishError(f"unsupported path item {item}")
                column = item.steps[0]
                if column in top.key:
                    key_items.append(
                        KeyItem(column, top.key.index(column))
                    )
                elif top.has_field(column):
                    branch_specs.append(
                        {"kind": "parent_field", "column": column}
                    )
                else:
                    raise XmlPublishError(
                        f"{item} names neither a key nor a field of "
                        f"<{top.tag}>"
                    )
            elif isinstance(item, XqAggregate):
                branch_specs.append(
                    {"kind": "aggregate", "agg": item, "tag": None}
                )
            elif isinstance(item, XqElement):
                inner = self._classify_wrapped(item, flwr)
                branch_specs.append(inner)
            else:
                raise XmlPublishError(
                    f"unsupported return item {type(item).__name__}"
                )
        return key_items, branch_specs

    def _classify_wrapped(self, element: XqElement, flwr: XqFlwr) -> dict:
        """A wrapped item: <tag> nested-for </tag> or <tag> agg </tag>."""
        if len(element.items) != 1:
            raise XmlPublishError(
                f"wrapper <{element.tag}> must contain exactly one item"
            )
        inner = element.items[0]
        if isinstance(inner, XqAggregate):
            return {"kind": "aggregate", "agg": inner, "tag": element.tag}
        if isinstance(inner, XqFlwr):
            return {
                "kind": "nested",
                "flwr": inner,
                "container": element.tag,
            }
        raise XmlPublishError(
            f"wrapper <{element.tag}> must contain an aggregate or a "
            "nested for"
        )

    # ------------------------------------------------------------------
    # Expression rendering
    # ------------------------------------------------------------------

    def _render_value(
        self,
        node: XqNode,
        child: XmlViewNode,
        source: str,
        group_mode: bool,
        key_columns: tuple[str, str],
        alias: str,
    ) -> str:
        """Render a predicate-side value as SQL text.

        ``source`` is the relation the row context ranges over (the group
        variable in gapply mode, a derived-table alias otherwise);
        ``group_mode`` selects how inner aggregates are phrased:
        a subquery over the group variable, or a correlated subquery over a
        fresh derived copy of the child query (the paper's Section 2
        formulation). ``key_columns`` is (child key column, outer reference)
        for the correlation; ``alias`` generates fresh derived aliases.
        """
        if isinstance(node, XqLiteral):
            return _sql_literal(node.value)
        if isinstance(node, XqPath):
            step = node.steps[-1] if node.steps else None
            if step is None:
                raise XmlPublishError(f"cannot render bare {node} as value")
            return step
        if isinstance(node, XqArith):
            left = self._render_value(
                node.left, child, source, group_mode, key_columns, alias + "l"
            )
            right = self._render_value(
                node.right, child, source, group_mode, key_columns, alias + "r"
            )
            return f"({left} {node.op} {right})"
        if isinstance(node, XqAggregate):
            column = node.path.steps[-1]
            if group_mode:
                return f"(select {node.function}({column}) from {source})"
            child_columns = ", ".join(self.node_columns(child))
            child_key, outer_reference = key_columns
            return (
                f"(select {node.function}({column}) from ({child.query}) "
                f"as {alias}({child_columns}) "
                f"where {alias}.{child_key} = {outer_reference})"
            )
        raise XmlPublishError(
            f"unsupported value node {type(node).__name__}"
        )

    def _render_predicate(
        self,
        predicate: XqComparison,
        child: XmlViewNode,
        source: str,
        group_mode: bool,
        key_columns: tuple[str, str],
        alias: str,
    ) -> str:
        op = "<>" if predicate.op == "!=" else predicate.op
        left = self._render_value(
            predicate.left, child, source, group_mode, key_columns, alias + "a"
        )
        right = self._render_value(
            predicate.right, child, source, group_mode, key_columns, alias + "b"
        )
        return f"{left} {op} {right}"

    # ------------------------------------------------------------------
    # Constructor queries (Q1/Q2/Q3 shapes)
    # ------------------------------------------------------------------

    def _translate_constructor(self, flwr: XqFlwr) -> TranslatedQuery:
        top = self.view.node
        key_items, branch_specs = self._analyze_items(flwr)
        if flwr.where is not None:
            raise XmlPublishError(
                "WHERE with a constructor return is not supported; "
                "group-selection queries use `return $s`"
            )
        if len(top.children) != 1:
            raise XmlPublishError(
                "constructor translation expects a single-child view node"
            )
        edge = top.children[0]
        child = edge.node
        child_key = edge.child_columns[0]
        if len(edge.child_columns) != 1:
            raise XmlPublishError("composite correlation keys not supported")

        # --- payload layout ------------------------------------------------
        # A true *outer union*: every branch owns a disjoint slice of the
        # payload columns (nulls elsewhere), so positionally-unioned columns
        # always carry one branch's type — exactly the encoding of [17] and
        # the paper's Section 2 example queries.
        branch_widths: list[int] = []
        for spec in branch_specs:
            if spec["kind"] in ("parent_field", "aggregate"):
                branch_widths.append(1)
            else:
                fields = self._nested_fields(spec["flwr"], child)
                spec["fields"] = fields
                branch_widths.append(len(fields))
        offsets: list[int] = []
        payload_width = 0
        for width in branch_widths:
            offsets.append(payload_width)
            payload_width += width

        branches: list[Branch] = []
        gapply_branches: list[str] = []
        union_branches: list[str] = []
        child_schema = self.node_schema(child)
        child_columns = ", ".join(column.name for column in child_schema)

        def pad(values: list[str], offset: int) -> str:
            padded = (
                ["null"] * offset
                + values
                + ["null"] * (payload_width - offset - len(values))
            )
            return ", ".join(padded)

        for branch_id, spec in enumerate(branch_specs):
            alias = f"b{branch_id}"
            offset = offsets[branch_id]
            if spec["kind"] == "parent_field":
                column = spec["column"]
                branches.append(ScalarBranch(branch_id, column, offset))
                # one row per group carrying the (group-constant) field
                gapply_branches.append(
                    f"select distinct {branch_id} as branch, "
                    f"{pad([column], offset)} from g"
                )
                # a group exists iff its key has a child row: the gapply
                # outer query joins parent to child, so read only parents
                # with a child here too
                parent_columns = ", ".join(self.node_columns(top))
                union_branches.append(
                    f"select {top.key[0]} as gkey, {branch_id} as branch, "
                    f"{pad([column], offset)} from ({top.query}) as "
                    f"{alias}({parent_columns}) where exists (select "
                    f"{alias}c.{child_key} from ({child.query}) as "
                    f"{alias}c({child_columns}) where {alias}c.{child_key} = "
                    f"{alias}.{edge.parent_columns[0]})"
                )
            elif spec["kind"] == "aggregate":
                aggregate: XqAggregate = spec["agg"]
                column = aggregate.path.steps[-1]
                function = aggregate.function
                tag = spec["tag"] or f"{function}_{column}"
                branches.append(ScalarBranch(branch_id, tag, offset))
                predicate_sql_g = ""
                predicate_sql_u = ""
                if aggregate.predicate is not None:
                    predicate_sql_g = " where " + self._render_predicate(
                        aggregate.predicate, child, "g", True,
                        (child_key, ""), alias,
                    )
                    predicate_sql_u = " and " + self._render_predicate(
                        aggregate.predicate, child, alias, False,
                        (child_key, f"{alias}.{child_key}"), alias + "s",
                    )
                if function == "count" and column == child.tag:
                    agg_expr = "count(*)"  # count($s/part): count elements
                else:
                    agg_expr = f"{function}({column})"
                gapply_branches.append(
                    f"select {branch_id} as branch, {pad([agg_expr], offset)} "
                    f"from g{predicate_sql_g}"
                )
                if aggregate.predicate is None:
                    union_branches.append(
                        f"select {alias}.{child_key} as gkey, "
                        f"{branch_id} as branch, {pad([agg_expr], offset)} "
                        f"from ({child.query}) as {alias}({child_columns}) "
                        f"group by {alias}.{child_key}"
                    )
                else:
                    # Grouping the filtered rows would drop a group none of
                    # whose rows pass (the COUNT bug): aggregate each key
                    # that has a child row over its rows that pass, as the
                    # per-group query does (count(()) = 0).
                    per_key = (
                        f"(select {agg_expr} from ({child.query}) as "
                        f"{alias}({child_columns}) where {alias}.{child_key} "
                        f"= {alias}k.gkey{predicate_sql_u})"
                    )
                    union_branches.append(
                        f"select {alias}k.gkey as gkey, {branch_id} as branch, "
                        f"{pad([per_key], offset)} from (select distinct "
                        f"{child_key} from ({child.query}) as "
                        f"{alias}d({child_columns})) as {alias}k(gkey)"
                    )
            else:  # nested
                nested: XqFlwr = spec["flwr"]
                fields = spec["fields"]
                branches.append(
                    RowsBranch(
                        branch_id,
                        spec["container"],
                        self._nested_row_tag(nested),
                        tuple(
                            (tag, offset + index)
                            for index, (tag, _) in enumerate(fields)
                        ),
                    )
                )
                columns = [column for _, column in fields]
                path = nested.path
                assert isinstance(path, XqPath)
                predicate_sql_g = ""
                predicate_sql_u = ""
                if path.predicate is not None:
                    predicate_sql_g = " where " + self._render_predicate(
                        path.predicate, child, "g", True,
                        (child_key, ""), alias,
                    )
                    predicate_sql_u = " where " + self._render_predicate(
                        path.predicate, child, alias, False,
                        (child_key, f"{alias}.{child_key}"), alias + "s",
                    )
                gapply_branches.append(
                    f"select {branch_id} as branch, {pad(columns, offset)} "
                    f"from g{predicate_sql_g}"
                )
                union_branches.append(
                    f"select {alias}.{child_key} as gkey, "
                    f"{branch_id} as branch, {pad(columns, offset)} "
                    f"from ({child.query}) as {alias}({child_columns})"
                    f"{predicate_sql_u}"
                )

        group_tag = flwr.body.tag if isinstance(flwr.body, XqElement) else top.tag
        spec = TaggerSpec(
            root_tag=self.view.root_tag + "_result",
            group_tag=group_tag,
            key_count=1,
            key_items=tuple(key_items),
            branches=tuple(branches),
            key_types=(child_schema.column(child_key).dtype,),
        )

        per_group = " union all ".join(gapply_branches)
        has_parent_fields = any(
            spec_["kind"] == "parent_field" for spec_ in branch_specs
        )
        if has_parent_fields:
            # Parent fields live in the top node's query; widen the outer
            # query with the parent join so the group carries them.
            parent_columns = ", ".join(self.node_columns(top))
            parent_key = edge.parent_columns[0]
            gapply_sql = (
                f"select gapply({per_group}) "
                f"from ({top.query}) as psrc({parent_columns}), "
                f"({child.query}) as gsrc({child_columns}) "
                f"where psrc.{parent_key} = gsrc.{child_key} "
                f"group by {parent_key} : g"
            )
        else:
            gapply_sql = (
                f"select gapply({per_group}) "
                f"from ({child.query}) as gsrc({child_columns}) "
                f"group by {child_key} : g"
            )
        outer_union_sql = (
            " union all ".join(union_branches)
            + " order by gkey, branch"
        )
        return TranslatedQuery(
            gapply_sql, outer_union_sql, spec, payload_width
        )

    def _nested_fields(
        self, nested: XqFlwr, child: XmlViewNode
    ) -> list[tuple[str, str]]:
        """(xml tag, source column) pairs of a nested-for return element."""
        body = nested.body
        if not isinstance(body, XqElement):
            raise XmlPublishError("nested for must return an element")
        fields: list[tuple[str, str]] = []
        for item in body.items:
            if not (
                isinstance(item, XqPath)
                and item.variable == nested.variable
                and len(item.steps) == 1
            ):
                raise XmlPublishError(
                    "nested return supports only $var/column items"
                )
            column = item.steps[0]
            field = child.field(column)
            fields.append((field.tag, field.column))
        if not fields:
            raise XmlPublishError("nested return element is empty")
        return fields

    @staticmethod
    def _nested_row_tag(nested: XqFlwr) -> str:
        body = nested.body
        assert isinstance(body, XqElement)
        return body.tag

    # ------------------------------------------------------------------
    # Whole-subtree (group selection) queries
    # ------------------------------------------------------------------

    def _translate_whole_subtree(self, flwr: XqFlwr) -> TranslatedQuery:
        top = self.view.node
        if len(top.children) != 1:
            raise XmlPublishError(
                "whole-subtree translation expects a single-child view node"
            )
        edge = top.children[0]
        child = edge.node
        child_key = edge.child_columns[0]
        child_schema = self.node_schema(child)
        child_column_names = [column.name for column in child_schema]
        child_columns = ", ".join(child_column_names)
        payload_columns = [
            column for column in child_column_names if column != child_key
        ]

        where = flwr.where
        if where is None:
            raise XmlPublishError(
                "whole-subtree return without WHERE is just the view; add a "
                "group-selection condition"
            )

        # ---- the test condition, in both phrasings ----------------------
        if isinstance(where, XqSome):
            condition_g = self._render_predicate(
                where.satisfies, child, "g", True, (child_key, ""), "w"
            )
            test_g = f"exists (select {child_key} from g where {condition_g})"
            condition_u = self._render_predicate(
                where.satisfies, child, "w0", False,
                (child_key, f"w0.{child_key}"), "ws",
            )
            test_u = (
                f"exists (select {child_key} from ({child.query}) as "
                f"w0({child_columns}) where w0.{child_key} = "
                f"b0.{child_key} and {condition_u})"
            )
        elif isinstance(where, XqComparison):
            if not isinstance(where.left, XqAggregate):
                raise XmlPublishError(
                    "group selection WHERE must be `some..satisfies` or an "
                    "aggregate comparison"
                )
            aggregate = where.left
            column = aggregate.path.steps[-1]
            right = self._render_value(
                where.right, child, "g", True, (child_key, ""), "w"
            )
            op = "<>" if where.op == "!=" else where.op
            test_g = (
                f"exists (select 1 from g having "
                f"{aggregate.function}({column}) {op} {right})"
            )
            test_u = (
                f"exists (select 1 from ({child.query}) as "
                f"w0({child_columns}) where w0.{child_key} = "
                f"b0.{child_key} having "
                f"{aggregate.function}(w0.{column}) {op} {right})"
            )
        else:
            raise XmlPublishError(
                f"unsupported WHERE {type(where).__name__}"
            )

        fields = tuple(
            (child.field(column).tag if child.has_field(column) else column, index)
            for index, column in enumerate(payload_columns)
        )
        spec = TaggerSpec(
            root_tag=self.view.root_tag + "_result",
            group_tag=top.tag,
            key_count=1,
            key_items=(KeyItem(top.key[0], 0),),
            branches=(RowsBranch(0, None, child.tag, fields),),
            key_types=(child_schema.column(child_key).dtype,),
        )
        payload = ", ".join(payload_columns)
        gapply_sql = (
            f"select gapply(select 0 as branch, {payload} from g "
            f"where {test_g}) "
            f"from ({child.query}) as gsrc({child_columns}) "
            f"group by {child_key} : g"
        )
        outer_union_sql = (
            f"select b0.{child_key} as gkey, 0 as branch, {payload} "
            f"from ({child.query}) as b0({child_columns}) "
            f"where {test_u} "
            f"order by gkey"
        )
        return TranslatedQuery(gapply_sql, outer_union_sql, spec, len(fields))


def translate_xquery(
    query: str, view: XmlView, catalog: Catalog
) -> TranslatedQuery:
    """Convenience wrapper: parse + translate one FLWR query."""
    return Translator(view, catalog).translate(query)
