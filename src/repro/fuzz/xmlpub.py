"""Differential fuzzing of the streaming XML publisher.

Two layers of seeded random cases, both with a materialized reference:

* **Tagger-level** — a random :class:`~repro.xmlpub.tagger.TaggerSpec`
  (random key arity, scalar/rows branches with disjoint payload slices,
  optional containers) over a random clustered row stream drawn from a
  hostile value pool (control characters, ``]]>``, markup characters,
  ``\\r``, unicode, NULL, dates, booleans, quarter-step floats, ``nan``,
  ``±inf``, ``-0.0``, ``1e16``, ``10**20``); about half the payload
  columns draw from one exact type. The summary's ``single-type-cases``
  counts the cases in which a run of two rows or more reaches
  ``format_column`` with a column all ``str``, ``float`` or ``int`` — its
  fast paths. Checks:

  1. *chunk invariance* — ``stream_document`` output re-joined is
     byte-identical to ``tag_to_string`` for chunk sizes from 1 byte to
     64 KiB; chunking must move framing, never bytes. Both sides run the
     same tagging loop (``tag_to_string`` is that loop joined), so this
     checks the stream's slicing and accounting only — check 2 is the one
     that does not compare the tagger with itself (and
     ``tests/properties/test_tagger_properties.py`` holds it to a
     row-at-a-time reference implementation, fragment for fragment);
  2. *parse round-trip* — the document parses with a conforming XML
     parser (:mod:`xml.etree.ElementTree`) and the parsed element
     structure equals an **independent simulation** built straight from
     the spec and rows (group boundaries, container nesting, key items,
     field texts via :func:`~repro.xmlpub.tagger.sanitize_parsed_text`) —
     this is what catches group-boundary and escaping bugs.

* **View-level** (sampled) — the standard supplier view over randomized
  hostile table data, published end-to-end through
  :meth:`Database.publish <repro.api.Database.publish>`. The document
  order is key order (DESIGN.md §7), so there is one reference per case:
  the sorted outer union's SQL run on the row iterators
  (:func:`repro.fuzz.oracle.reference_rows`) and tagged. Every variant —
  both formulations × in memory and spilled — must stream it byte for
  byte (``view-variants`` in the summary).

The ``xmlpub`` profile of the one driver (:mod:`repro.fuzz.driver`): a
failure has kind ``xmlpub`` and its stage (``chunking`` / ``parse`` /
``view``) as configuration. Tagger-level failures shrink with
:func:`repro.fuzz.shrink.xmlpub_candidates` (drop rows, simplify strings)
and persist as typed-value JSON reproducers; the checked-in ones live
under ``tests/fuzz_corpus/xmlpub/`` and tier-1 replays every file.
"""

from __future__ import annotations

import datetime
import random
import xml.etree.ElementTree as ET
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from pathlib import Path
from typing import Any, Iterable

from repro.api import Database
from repro.errors import ReproError
from repro.fuzz.corpus import read_reproducers, write_reproducer
from repro.fuzz.driver import Failure, Profile
from repro.fuzz.oracle import reference_rows
from repro.fuzz.shrink import xmlpub_candidates
from repro.optimizer.planner import PlannerOptions
from repro.storage.types import DataType, key_function
from repro.xmlpub.stream import PublishStats, stream_document
from repro.xmlpub.tagger import (
    ConstantSpaceTagger,
    KeyItem,
    RowsBranch,
    ScalarBranch,
    TaggerSpec,
    sanitize_parsed_text,
)
from repro.xmlpub.translate import FORMULATIONS, translate_xquery
from repro.xmlpub.view import tpch_supplier_view

#: The profile's name, its failures' kind, and its reproducers' kind.
XMLPUB = "xmlpub"

#: Chunk sizes every tagger-level case is streamed at; 1 forces a flush
#: per fragment, 64 KiB usually yields a single chunk.
CHUNK_SIZES = (1, 7, 64, 65536)

#: Values designed to break escaping, formatting, or parser round-trips.
NASTY_VALUES: tuple[Any, ...] = (
    None,
    True,
    False,
    0,
    -7,
    123456789,
    0.25,
    -3.75,
    55.0,
    1e10,
    1e16,
    -0.0,
    float("nan"),
    float("inf"),
    float("-inf"),
    10**20,
    "",
    "plain",
    "a&b<c>d",
    "]]>",
    "two\nlines",
    "tab\tsep",
    "carriage\rreturn",
    "\r\n",
    "\x00",
    "ctl\x01\x02chars",
    "\x1f",
    "quote'dq\"",
    "ünïcödé ☃",
    "x" * 100,
    datetime.date(2003, 6, 9),
    datetime.date(1970, 1, 1),
)

#: Hostile strings for the view-level cases (flow into p_name / s_name).
NASTY_STRINGS = tuple(v for v in NASTY_VALUES if isinstance(v, str))

#: ``NASTY_VALUES`` by exact type. A payload column drawn from one of these
#: takes the tagger's single-type path (``format_column``); ``bool`` is
#: here to check it does not take the ``int`` one.
SINGLE_TYPE_POOLS = tuple(
    tuple(v for v in NASTY_VALUES if type(v) is kind)
    for kind in (str, float, int, bool)
)

_TAG_WORDS = ("g", "item", "val", "node", "k", "row", "grp", "f", "leaf")


@dataclass
class XmlPubCase:
    """One tagger-level reproducer: a spec plus a clustered row stream."""

    seed: int
    spec: TaggerSpec
    rows: list[tuple]


# ----------------------------------------------------------------------
# Case generation
# ----------------------------------------------------------------------


class _Names:
    """Distinct XML tag names, so the parse oracle is never ambiguous."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0

    def next(self) -> str:
        self.count += 1
        return f"{self.rng.choice(_TAG_WORDS)}{self.count}"


def generate_xmlpub_case(seed: int) -> XmlPubCase:
    """Deterministically build one random spec + clustered row stream."""
    rng = random.Random(seed)
    names = _Names(rng)
    key_count = rng.randint(1, 2)
    key_items = tuple(
        KeyItem(names.next(), index)
        for index in range(key_count)
        if rng.random() < 0.85
    )
    branches: list[ScalarBranch | RowsBranch] = []
    payload_cursor = 0
    for branch_id in range(rng.randint(1, 3)):
        if rng.random() < 0.4:
            branches.append(
                ScalarBranch(branch_id, names.next(), payload_cursor)
            )
            payload_cursor += 1
        else:
            fields = tuple(
                (names.next(), payload_cursor + k)
                for k in range(rng.randint(1, 3))
            )
            payload_cursor += len(fields)
            container = names.next() if rng.random() < 0.7 else None
            branches.append(
                RowsBranch(branch_id, container, names.next(), fields)
            )
    spec = TaggerSpec(
        root_tag=names.next(),
        group_tag=names.next(),
        key_count=key_count,
        key_items=key_items,
        branches=tuple(branches),
    )
    # About half the payload columns draw from one exact type.
    pools = [
        rng.choice(SINGLE_TYPE_POOLS) if rng.random() < 0.5 else NASTY_VALUES
        for _ in range(payload_cursor)
    ]
    rows: list[tuple] = []
    for group_index in range(rng.randint(0, 5)):
        # First key column is distinct by construction so the stream is
        # genuinely clustered; further key columns draw from the pool.
        key: tuple = (group_index,) + tuple(
            rng.choice(NASTY_VALUES) for _ in range(key_count - 1)
        )
        for branch in spec.branches:
            count = 1 if isinstance(branch, ScalarBranch) else rng.randint(0, 3)
            for _ in range(count):
                payload = [None] * payload_cursor
                if isinstance(branch, ScalarBranch):
                    index = branch.payload_index
                    payload[index] = rng.choice(pools[index])
                else:
                    for _, index in branch.fields:
                        payload[index] = rng.choice(pools[index])
                rows.append(key + (branch.branch,) + tuple(payload))
    return XmlPubCase(seed=seed, spec=spec, rows=rows)


# ----------------------------------------------------------------------
# The parse oracle: independent simulation vs. what a parser hands back
# ----------------------------------------------------------------------


def expected_structure(spec: TaggerSpec, rows: Iterable[tuple]) -> list[list]:
    """What the parsed document must contain, derived without the tagger.

    One entry per group, in stream order; each group is a list of
    entries — ``["leaf", tag, text]`` for key items and scalar branches,
    ``["container", tag, [rows...]]`` / ``["row", tag, fields]`` for rows
    branches — where ``text`` is the parser-visible form of the value
    (:func:`sanitize_parsed_text`).
    """
    groups: list[list] = []
    current_key: tuple | None = None
    group: list | None = None

    def entry_for(row: tuple, branch: ScalarBranch | RowsBranch) -> list:
        base = spec.branch_column + 1
        if isinstance(branch, ScalarBranch):
            return [
                "leaf",
                branch.tag,
                sanitize_parsed_text(row[base + branch.payload_index]),
            ]
        fields = [
            [tag, sanitize_parsed_text(row[base + index])]
            for tag, index in branch.fields
        ]
        return ["row", branch.row_tag, fields]

    for row in rows:
        key = row[: spec.key_count]
        if key != current_key:
            current_key = key
            group = [
                ["leaf", item.tag, sanitize_parsed_text(key[item.key_index])]
                for item in spec.key_items
            ]
            groups.append(group)
        branch = spec.branch_by_id(row[spec.branch_column])
        entry = entry_for(row, branch)
        container = (
            branch.container_tag if isinstance(branch, RowsBranch) else None
        )
        if container is None:
            group.append(entry)
        elif group and group[-1][0] == "container" and group[-1][1] == container:
            group[-1][2].append(entry[1:])
        else:
            group.append(["container", container, [entry[1:]]])
    return groups


def parsed_structure(spec: TaggerSpec, document: bytes) -> list[list]:
    """The same canonical structure, read back from parsed XML."""
    root = ET.fromstring(document)
    if root.tag != spec.root_tag:
        raise AssertionError(
            f"root tag {root.tag!r} != expected {spec.root_tag!r}"
        )
    containers = {
        b.container_tag
        for b in spec.branches
        if isinstance(b, RowsBranch) and b.container_tag is not None
    }
    groups: list[list] = []
    for group_el in root:
        if group_el.tag != spec.group_tag:
            raise AssertionError(
                f"unexpected group tag {group_el.tag!r}"
            )
        group: list = []
        for child in group_el:
            if child.tag in containers:
                group.append(
                    [
                        "container",
                        child.tag,
                        [
                            [row.tag, [[f.tag, f.text or ""] for f in row]]
                            for row in child
                        ],
                    ]
                )
            elif len(child):
                group.append(
                    ["row", child.tag, [[f.tag, f.text or ""] for f in child]]
                )
            else:
                group.append(["leaf", child.tag, child.text or ""])
        groups.append(group)
    return groups


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------


def check_case(case: XmlPubCase) -> Failure | None:
    """Run the chunk-invariance and parse oracles; None means clean."""

    def failed(stage: str, detail: str) -> Failure:
        return Failure(case.seed, XMLPUB, detail, case, stage)

    tagger = ConstantSpaceTagger(case.spec)
    reference = tagger.tag_to_string(case.rows).encode()
    for chunk_bytes in CHUNK_SIZES:
        stats = PublishStats()
        streamed = b"".join(
            stream_document(
                case.rows, case.spec, chunk_bytes=chunk_bytes, stats=stats
            )
        )
        if streamed != reference:
            return failed(
                "chunking",
                f"chunk_bytes={chunk_bytes}: streamed {len(streamed)}B != "
                f"materialized {len(reference)}B",
            )
        if stats.bytes_emitted != len(reference):
            return failed(
                "chunking",
                f"chunk_bytes={chunk_bytes}: stats report "
                f"{stats.bytes_emitted}B emitted, document is "
                f"{len(reference)}B",
            )
    try:
        parsed = parsed_structure(case.spec, reference)
    except (ET.ParseError, AssertionError) as error:
        return failed("parse", f"document does not parse: {error}")
    expected = expected_structure(case.spec, case.rows)
    if parsed != expected:
        return failed(
            "parse",
            "parsed structure diverges from the spec/row simulation\n"
            f"expected: {expected!r}\n"
            f"parsed:   {parsed!r}",
        )
    return None


#: The paper's query shapes, over the standard supplier view.
VIEW_XQUERIES = (
    (
        "q1",
        "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> "
        "$s/s_suppkey, <parts> for $p in $s/part return <part> $p/p_name, "
        "$p/p_retailprice </part> </parts>, avg($s/part/p_retailprice) "
        "</ret>",
    ),
    (
        "q2",
        "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> "
        "$s/s_suppkey, <count_above> count($s/part[p_retailprice >= "
        "avg($s/part/p_retailprice)]) </count_above>, <count_below> "
        "count($s/part[p_retailprice < avg($s/part/p_retailprice)]) "
        "</count_below> </ret>",
    ),
    (
        "q3",
        "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> "
        "$s/s_suppkey, <highend> for $p in $s/part[p_retailprice >= 0.8 * "
        "max($s/part/p_retailprice)] return <part> $p/p_name </part> "
        "</highend> </ret>",
    ),
    (
        "gs",
        "for $s in /doc(tpch.xml)/suppliers/supplier where some $p in "
        "$s/part satisfies $p/p_retailprice > 40 return $s",
    ),
    (
        "ags",
        "for $s in /doc(tpch.xml)/suppliers/supplier where "
        "avg($s/part/p_retailprice) > 30 return $s",
    ),
    (
        "parent",
        "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> "
        "$s/s_suppkey, $s/s_name, <parts> for $p in $s/part return <part> "
        "$p/p_name </part> </parts>, avg($s/part/p_retailprice) </ret>",
    ),
)

#: Cells GApply's partition buffer holds before a spilled variant flushes
#: a run: two rows of the four-column outer query.
VIEW_SPILL_THRESHOLD = 8

#: Every way a view case is published: (formulation, forced spill
#: threshold or None).
VIEW_VARIANTS = tuple(
    (formulation, threshold)
    for formulation in FORMULATIONS
    for threshold in (None, VIEW_SPILL_THRESHOLD)
)


def build_view_database(rng: random.Random) -> Database:
    """The supplier-view schema with randomized hostile data."""
    n_suppliers = rng.randint(1, 4)
    n_parts = rng.randint(1, 12)
    db = Database()
    db.create_table(
        "part",
        [
            ("p_partkey", DataType.INTEGER),
            ("p_name", DataType.STRING),
            ("p_retailprice", DataType.FLOAT),
        ],
        [
            (i, rng.choice(NASTY_STRINGS), rng.randint(0, 400) * 0.25)
            for i in range(1, n_parts + 1)
        ],
        primary_key=["p_partkey"],
    )
    db.create_table(
        "partsupp",
        [("ps_suppkey", DataType.INTEGER), ("ps_partkey", DataType.INTEGER)],
        [
            (100 + rng.randrange(n_suppliers), i)
            for i in range(1, n_parts + 1)
            if rng.random() < 0.9
        ],
    )
    db.create_table(
        "supplier",
        [("s_suppkey", DataType.INTEGER), ("s_name", DataType.STRING)],
        [
            (100 + i, rng.choice(NASTY_STRINGS))
            for i in range(n_suppliers)
        ],
        primary_key=["s_suppkey"],
    )
    return db


def check_view_case(seed: int, tally: Counter | None = None) -> Failure | None:
    """Every :data:`VIEW_VARIANTS` publish streams the one reference
    document: the union SQL's rows on the row iterators, tagged."""

    def failed(detail: str) -> Failure:
        return Failure(seed, XMLPUB, detail, config="view")

    rng = random.Random(seed ^ 0xD0C)
    db = build_view_database(rng)
    name, query = VIEW_XQUERIES[(seed // VIEW_CASE_EVERY) % len(VIEW_XQUERIES)]
    view = tpch_supplier_view()
    translated = translate_xquery(query, view, db.catalog)
    reference = (
        ConstantSpaceTagger(translated.spec)
        .tag_to_string(reference_rows(db, translated.outer_union_sql))
        .encode()
    )
    for formulation, threshold in VIEW_VARIANTS:
        options = PlannerOptions(gapply_spill_threshold=threshold)
        spill = "memory" if threshold is None else "spilled"
        config = f"{name}/{formulation}/{spill}"
        try:
            streamed = db.publish(
                view,
                query,
                formulation,
                chunk_bytes=rng.choice(CHUNK_SIZES),
                planner_options=options,
            ).read_all()
        except ReproError as error:
            return failed(f"{config}: {type(error).__name__}: {error}")
        if streamed != reference:
            return failed(
                f"{config}: streamed {len(streamed)}B != the union "
                f"reference's {len(reference)}B\n"
                f"streamed:  {streamed!r}\nreference: {reference!r}"
            )
        if tally is not None:
            tally["view-variants"] += 1
    return None


# ----------------------------------------------------------------------
# Corpus persistence (typed values; separate directory from SQL corpus)
# ----------------------------------------------------------------------


def _encode_value(value: Any) -> list:
    if value is None:
        return ["null"]
    if isinstance(value, bool):
        return ["bool", value]
    if isinstance(value, int):
        return ["int", value]
    if isinstance(value, float):
        return ["float", value]
    if isinstance(value, str):
        return ["str", value]
    if isinstance(value, datetime.date):
        return ["date", value.isoformat()]
    raise TypeError(f"unencodable corpus value {value!r}")


def _decode_value(encoded: list) -> Any:
    kind = encoded[0]
    if kind == "null":
        return None
    if kind == "bool":
        return bool(encoded[1])
    if kind == "int":
        return int(encoded[1])
    if kind == "float":
        return float(encoded[1])
    if kind == "str":
        return str(encoded[1])
    if kind == "date":
        return datetime.date.fromisoformat(encoded[1])
    raise ValueError(f"unknown corpus value kind {kind!r}")


def _spec_payload(spec: TaggerSpec) -> dict:
    branches = []
    for branch in spec.branches:
        if isinstance(branch, ScalarBranch):
            branches.append(
                ["scalar", branch.branch, branch.tag, branch.payload_index]
            )
        else:
            branches.append(
                [
                    "rows",
                    branch.branch,
                    branch.container_tag,
                    branch.row_tag,
                    [list(f) for f in branch.fields],
                ]
            )
    return {
        "root_tag": spec.root_tag,
        "group_tag": spec.group_tag,
        "key_count": spec.key_count,
        "key_items": [[item.tag, item.key_index] for item in spec.key_items],
        "branches": branches,
    }


def _spec_from_payload(payload: dict) -> TaggerSpec:
    branches: list[ScalarBranch | RowsBranch] = []
    for entry in payload["branches"]:
        if entry[0] == "scalar":
            branches.append(ScalarBranch(entry[1], entry[2], entry[3]))
        else:
            branches.append(
                RowsBranch(
                    entry[1],
                    entry[2],
                    entry[3],
                    tuple((tag, index) for tag, index in entry[4]),
                )
            )
    return TaggerSpec(
        root_tag=payload["root_tag"],
        group_tag=payload["group_tag"],
        key_count=payload["key_count"],
        key_items=tuple(
            KeyItem(tag, index) for tag, index in payload["key_items"]
        ),
        branches=tuple(branches),
    )


def save_xmlpub_case(failure: Failure, directory: Path | str) -> Path:
    """Write one reproducer; content-addressed like the SQL corpus."""
    case = failure.case
    return write_reproducer(
        directory,
        {
            "seed": case.seed,
            "kind": XMLPUB,
            "detail": failure.detail,
            "spec": _spec_payload(case.spec),
            "rows": [[_encode_value(v) for v in row] for row in case.rows],
        },
    )


def load_xmlpub_corpus(directory: Path | str) -> list[XmlPubCase]:
    return [
        XmlPubCase(
            seed=payload["seed"],
            spec=_spec_from_payload(payload["spec"]),
            rows=[tuple(_decode_value(v) for v in row) for row in payload["rows"]],
        )
        for _, payload in read_reproducers(directory, frozenset({XMLPUB}))
    ]


# ----------------------------------------------------------------------
# The profile
# ----------------------------------------------------------------------

#: One seed in this many also runs an end-to-end view case; successive
#: view cases take successive :data:`VIEW_XQUERIES`.
VIEW_CASE_EVERY = 5


def _has_single_type_run(case: XmlPubCase) -> bool:
    """Whether the tagger hands ``format_column`` a column of two values or
    more that share one exact type with a fast path (``str``, ``float`` or
    ``int``): some run of one (key, branch), cut by the tagger's key rule,
    has two rows or more and a payload column its branch reads is all of
    one such type."""
    key_count = case.spec.key_count
    base = key_count + 1
    reads = {
        branch.branch: (
            [branch.payload_index]
            if isinstance(branch, ScalarBranch)
            else [index for _, index in branch.fields]
        )
        for branch in case.spec.branches
    }
    key_of = key_function(case.spec.key_types)
    for (head, _), run in groupby(
        case.rows, lambda row: (row[:base], key_of(row[:key_count]))
    ):
        run = list(run)
        for index in reads.get(head[key_count], ()) if len(run) > 1 else ():
            if {type(row[base + index]) for row in run} in ({str}, {float}, {int}):
                return True
    return False


def _check(case: XmlPubCase, tally: Counter) -> Failure | None:
    if _has_single_type_run(case):
        tally["single-type-cases"] += 1
    failure = check_case(case)
    if failure is None and case.seed % VIEW_CASE_EVERY == 0:
        tally["view-cases"] += 1
        failure = check_view_case(case.seed, tally)
    return failure


PROFILE = Profile(
    XMLPUB,
    generate_xmlpub_case,
    _check,
    candidates=xmlpub_candidates,
    save=save_xmlpub_case,
)
