"""The constant-space tagger.

Consumes the row stream of a *sorted outer union* (or of a GApply plan,
whose output is clustered per group by construction) and emits XML text.
Memory is O(document depth): the tagger keeps only the current group key,
the currently open container tag, and the output buffer the caller drains —
exactly the middleware component the paper assumes ("the result tuples must
be clustered by the element to which they correspond", Section 2).

Row layout (produced by :mod:`repro.xmlpub.translate`):

    [key column(s) ...] [branch id] [payload column(s) ...]

Rows must arrive clustered by key; within a group, clustered by branch in
ascending order (the translator assigns branch ids in return-item order and
adds the matching ORDER BY / union order).
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.errors import XmlPublishError
from repro.execution.vector.batch import row_slices
from repro.storage.table import Row
from repro.storage.types import format_value, grouping_key


# Control characters in the XML 1.0 text domain. Carriage return is legal
# but parsers normalize a literal "\r" to "\n" (XML 1.0 §2.11), so it must
# leave as a character reference to survive a parse round-trip. The other
# C0 controls (everything below 0x20 except tab/LF/CR) are *illegal in the
# document entirely*, even as character references — the only lossless
# option is refusing the value, so we substitute U+FFFD REPLACEMENT
# CHARACTER, the convention XML-generating databases use for untypeable
# bytes. DEL (0x7F) and the C1 range are legal XML; they pass through.
_CONTROL_TRANSLATION = {
    0x0D: "&#13;",
    **{
        point: "�"
        for point in range(0x20)
        if point not in (0x09, 0x0A, 0x0D)
    },
}


#: The same points without carriage return: what a parser hands back.
_PARSED_CONTROL_TRANSLATION = {
    point: text for point, text in _CONTROL_TRANSLATION.items() if point != 0x0D
}

#: One search decides whether a text needs any of the rewriting below.
_needs_escaping = re.compile(r"[&<>\x00-\x08\x0b-\x1f]").search

#: Values whose :func:`format_value` rendering is digits, letters, ``.``,
#: ``-``, ``+`` and nothing else: safe in XML text by construction.
_PLAIN_TYPES = frozenset({type(None), bool, int, float, datetime.date})


def escape_text(value: object) -> str:
    """XML-escape a SQL value for text content.

    Handles every value :func:`~repro.storage.types.format_value` can
    render — NULL, booleans, dates, floats, strings — and produces text
    that any conforming XML parser accepts and round-trips: markup
    characters become entity references (``&amp;``/``&lt;``/``&gt;``, so
    ``]]>`` can never appear literally), ``\\r`` becomes ``&#13;`` to
    survive parser line-ending normalization, and XML-illegal control
    characters are replaced with U+FFFD (they cannot be represented in
    XML 1.0 at all). Most values need none of it: numbers, booleans,
    dates and NULL return their rendering as is, and a string is
    rewritten only when one search finds something to rewrite.
    """
    kind = type(value)
    if kind in _PLAIN_TYPES:
        return format_value(value)
    text = value if kind is str else format_value(value)
    if _needs_escaping(text) is None:
        return text
    text = (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return text.translate(_CONTROL_TRANSLATION)


def sanitize_parsed_text(value: object) -> str:
    """What a conforming parser hands back for :func:`escape_text` output.

    The reference for conformance tests and the fuzzer's round-trip
    oracle: entity references decode to their characters, ``&#13;``
    decodes to ``\\r``, and XML-illegal control characters were replaced
    by U+FFFD before the document was written.
    """
    return format_value(value).translate(_PARSED_CONTROL_TRANSLATION)


@dataclass(frozen=True)
class KeyItem:
    """A group-level field rendered from a key column (``$s/s_suppkey``)."""

    tag: str
    key_index: int


@dataclass(frozen=True)
class ScalarBranch:
    """A branch carrying one value per group (an aggregate item)."""

    branch: int
    tag: str
    payload_index: int


@dataclass(frozen=True)
class RowsBranch:
    """A branch carrying repeated elements (a nested FLWR item).

    ``container_tag`` (optional) wraps all rows of the branch within the
    group (``<parts> <part>..</part> ... </parts>``).
    """

    branch: int
    container_tag: str | None
    row_tag: str
    fields: tuple[tuple[str, int], ...]  # (tag, payload index)


Branch = ScalarBranch | RowsBranch


@dataclass(frozen=True)
class TaggerSpec:
    """Everything the tagger needs to interpret the row stream."""

    root_tag: str
    group_tag: str
    key_count: int
    key_items: tuple[KeyItem, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self) -> None:
        ids = [b.branch for b in self.branches]
        if len(set(ids)) != len(ids):
            raise XmlPublishError(f"duplicate branch ids: {ids}")

    @property
    def branch_column(self) -> int:
        return self.key_count

    def branch_by_id(self, branch_id: int) -> Branch:
        for branch in self.branches:
            if branch.branch == branch_id:
                return branch
        raise XmlPublishError(f"row carries unknown branch id {branch_id!r}")


def _element(tag: str, content: str = "%s") -> str:
    """``<tag>content</tag>`` as a ``%``-template (``content`` is one)."""
    tag = tag.replace("%", "%%")
    return f"<{tag}>{content}</{tag}>"


def _values_getter(positions: Sequence[int]):
    """``row -> tuple`` of the values at ``positions``, at C speed."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0, 0))


class ConstantSpaceTagger:
    """Streaming tagger; O(depth) state, rows in, XML text chunks out."""

    def __init__(self, spec: TaggerSpec, indent: bool = False):
        self.spec = spec
        self.indent = indent
        self._key_templates = [
            (_element(item.tag), item.key_index) for item in spec.key_items
        ]
        # branch id -> (container tag or None, row template, payload getter);
        # a scalar branch is a one-field row outside any container.
        payload = spec.branch_column + 1
        self._branches = {}
        for branch in spec.branches:
            if isinstance(branch, ScalarBranch):
                compiled = (
                    None,
                    _element(branch.tag),
                    _values_getter([payload + branch.payload_index]),
                )
            else:
                compiled = (
                    branch.container_tag,
                    _element(
                        branch.row_tag,
                        "".join(_element(tag) for tag, _ in branch.fields),
                    ),
                    _values_getter([payload + index for _, index in branch.fields]),
                )
            self._branches[branch.branch] = compiled

    # ------------------------------------------------------------------

    def tag(self, rows: Iterable[Row]) -> Iterator[str]:
        """Yield XML text chunks for a clustered row stream."""
        return chain.from_iterable(self.fragments(row_slices(rows)))

    def fragments(self, slices: Iterable[Sequence[Row]]) -> Iterator[list[str]]:
        """The tagging loop, a slice of rows at a time: one list of text
        fragments per slice (plus the root tags), in document order. A row
        that cannot be tagged raises after the fragments before it."""
        spec = self.spec
        key_count = spec.key_count
        key_templates = self._key_templates
        branches = self._branches
        group_open = f"<{spec.group_tag}>"
        group_close = f"</{spec.group_tag}>"
        escape = escape_text
        last_values: tuple | None = None  # raw key columns of the open group
        current_key: tuple | None = None  # their grouping_key, when needed
        open_container: str | None = None
        yield [f"<{spec.root_tag}>"]
        for rows in slices:
            out: list[str] = []
            emit = out.append
            for row in rows:
                key_values = row[:key_count]
                # Unequal raw values are unequal keys; equal ones are the
                # same key unless a bool met a number (True == 1), which
                # only a key holding 0 or 1 can — grouping_key decides.
                if key_values != last_values or (
                    current_key is not None
                    and grouping_key(key_values) != current_key
                ):
                    if last_values is not None:
                        if open_container is not None:
                            emit(f"</{open_container}>")
                            open_container = None
                        emit(group_close)
                    last_values = key_values
                    current_key = (
                        grouping_key(key_values)
                        if any(value in (0, 1) for value in key_values)
                        else None
                    )
                    emit(group_open)
                    for template, index in key_templates:
                        emit(template % escape(key_values[index]))
                branch = branches.get(row[key_count])
                if branch is None:
                    yield out
                    raise XmlPublishError(
                        f"row carries unknown branch id {row[key_count]!r}"
                    )
                container, template, values_of = branch
                if container != open_container:
                    if open_container is not None:
                        emit(f"</{open_container}>")
                    open_container = container
                    if container is not None:
                        emit(f"<{container}>")
                emit(template % tuple(map(escape, values_of(row))))
            yield out
        closing = []
        if last_values is not None:
            if open_container is not None:
                closing.append(f"</{open_container}>")
            closing.append(group_close)
        closing.append(f"</{spec.root_tag}>")
        yield closing

    def tag_to_string(self, rows: Iterable[Row]) -> str:
        """Materialize the whole document (tests and small examples)."""
        if not self.indent:
            return "".join(self.tag(rows))
        return self._pretty("".join(self.tag(rows)))

    @staticmethod
    def _pretty(document: str) -> str:
        """Cheap re-indenting for human consumption in examples."""
        out: list[str] = []
        depth = 0
        index = 0
        while index < len(document):
            close = document.find(">", index)
            if close == -1:
                break
            chunk = document[index : close + 1]
            text_start = close + 1
            next_open = document.find("<", text_start)
            text = document[text_start : next_open if next_open != -1 else None]
            if chunk.startswith("</"):
                depth -= 1
                out.append("  " * depth + chunk)
            elif text.strip() or (
                next_open != -1 and document.startswith("</", next_open)
            ):
                # leaf element: render <tag>text</tag> inline
                end = document.find(">", next_open)
                out.append("  " * depth + chunk + text + document[next_open : end + 1])
                index = end + 1
                continue
            else:
                out.append("  " * depth + chunk)
                depth += 1
            index = close + 1
        return "\n".join(out)
