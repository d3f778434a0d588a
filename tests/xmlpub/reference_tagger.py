"""The row-at-a-time tagger, kept as the reference the fast one is held to.

This is ``ConstantSpaceTagger.tag`` and ``escape_text`` as they were
before the tagger started working a slice of rows at a time: every row
through ``grouping_key`` and a linear branch scan, every value through
``format_value`` → ``replace`` ×3 → ``translate``. The production tagger
instead cuts each slice into runs of rows sharing one (key, branch),
keyed by the spec's key types (raw slices when they are all INTEGER,
STRING or DATE), and formats each run a payload column at a time with ``format_column``,
whose fast paths skip the per-value dispatch for columns of one exact
type (``str``, ``float``, ``int``). Slow and obviously right; the property
tests demand that the production tagger yields the same fragments for
any clustered stream and any slicing of it.
"""

from typing import Iterable, Iterator

from repro.storage.table import Row
from repro.storage.types import format_value, grouping_key
from repro.xmlpub.tagger import ScalarBranch, TaggerSpec

_CONTROL_TRANSLATION = {
    0x0D: "&#13;",
    **{
        point: "�"
        for point in range(0x20)
        if point not in (0x09, 0x0A, 0x0D)
    },
}


def reference_escape_text(value: object) -> str:
    text = format_value(value)
    text = (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
    return text.translate(_CONTROL_TRANSLATION)


def reference_tag(spec: TaggerSpec, rows: Iterable[Row]) -> Iterator[str]:
    """Yield XML text fragments for a clustered row stream."""
    escape_text = reference_escape_text
    yield f"<{spec.root_tag}>"
    current_key: tuple | None = None
    open_container: str | None = None

    def close_group() -> Iterator[str]:
        nonlocal open_container
        if open_container is not None:
            yield f"</{open_container}>"
            open_container = None
        yield f"</{spec.group_tag}>"

    for row in rows:
        key_values = row[: spec.key_count]
        key = grouping_key(key_values)
        if key != current_key:
            if current_key is not None:
                yield from close_group()
            current_key = key
            yield f"<{spec.group_tag}>"
            for item in spec.key_items:
                value = escape_text(key_values[item.key_index])
                yield f"<{item.tag}>{value}</{item.tag}>"
        branch = spec.branch_by_id(row[spec.branch_column])
        if isinstance(branch, ScalarBranch):
            if open_container is not None:
                yield f"</{open_container}>"
                open_container = None
            value = escape_text(row[spec.branch_column + 1 + branch.payload_index])
            yield f"<{branch.tag}>{value}</{branch.tag}>"
            continue
        if branch.container_tag != open_container:
            if open_container is not None:
                yield f"</{open_container}>"
            open_container = branch.container_tag
            if open_container is not None:
                yield f"<{open_container}>"
        chunks = [f"<{branch.row_tag}>"]
        for tag, payload_index in branch.fields:
            value = escape_text(row[spec.branch_column + 1 + payload_index])
            chunks.append(f"<{tag}>{value}</{tag}>")
        chunks.append(f"</{branch.row_tag}>")
        yield "".join(chunks)
    if current_key is not None:
        yield from close_group()
    yield f"</{spec.root_tag}>"
