"""Schemas: ordered, named, typed column lists with qualifier resolution.

A :class:`Schema` describes the shape of any tuple stream in the engine —
base tables, intermediate operator outputs and the temporary ``$group``
relations bound by GApply. Columns carry an optional *qualifier* (a table
name or alias) so that a join of two tables can expose ``s.name`` and
``p.name`` side by side while still resolving unambiguous bare names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from repro.errors import AmbiguousColumnError, SchemaError, UnknownColumnError
from repro.storage.types import DataType


@dataclass(frozen=True)
class Column:
    """One column: a name, a type and an optional qualifier.

    ``nullable`` is advisory metadata used by the optimizer's foreign-key
    reasoning and by the TPC-H loader's constraint checks; the executor
    itself never forbids NULLs.
    """

    name: str
    dtype: DataType = DataType.ANY
    qualifier: str | None = None
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if "." in self.name:
            raise SchemaError(
                f"column name {self.name!r} may not contain '.'; use qualifier"
            )

    @property
    def qualified_name(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def matches(self, reference: str) -> bool:
        """Whether this column is named by ``reference``.

        ``reference`` may be bare (``p_name``) or qualified (``part.p_name``).
        A bare reference matches regardless of the column's qualifier; a
        qualified reference must match both parts.
        """
        if "." in reference:
            qualifier, name = reference.rsplit(".", 1)
            return self.name == name and self.qualifier == qualifier
        return self.name == reference

    def with_qualifier(self, qualifier: str | None) -> "Column":
        return replace(self, qualifier=qualifier)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column({self.qualified_name}: {self.dtype.value})"


class Schema:
    """An ordered list of :class:`Column` with name-resolution helpers.

    Duplicate qualified names are rejected; duplicate *bare* names are
    allowed (they arise from joins) but resolving such a bare name raises
    :class:`AmbiguousColumnError`.
    """

    __slots__ = ("columns", "_index")

    def __init__(self, columns: Iterable[Column]):
        self.columns: tuple[Column, ...] = tuple(columns)
        seen: set[str] = set()
        for column in self.columns:
            qname = column.qualified_name
            if qname in seen:
                raise SchemaError(f"duplicate column {qname!r} in schema")
            seen.add(qname)
        # Lazy-built map: reference string -> position (or error marker).
        self._index: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def of(*specs: tuple[str, DataType] | Column | str) -> "Schema":
        """Convenience constructor.

        Accepts ``Column`` instances, ``(name, dtype)`` pairs, or bare names
        (typed ``ANY``). Example::

            Schema.of(("s_suppkey", DataType.INTEGER), "s_name")
        """
        columns: list[Column] = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
            elif isinstance(spec, str):
                columns.append(Column(spec))
            else:
                name, dtype = spec
                columns.append(Column(name, dtype))
        return Schema(columns)

    def qualify(self, qualifier: str | None) -> "Schema":
        """Return a copy with every column re-qualified (aliasing a table)."""
        return Schema(col.with_qualifier(qualifier) for col in self.columns)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join/cross product: our columns then ``other``'s."""
        return Schema(self.columns + other.columns)

    def project(self, references: Iterable[str]) -> "Schema":
        """Schema restricted to the referenced columns, in reference order."""
        return Schema(self.columns[self.index_of(ref)] for ref in references)

    def rename(self, names: Iterable[str]) -> "Schema":
        """Replace column names positionally (AS-clause output naming)."""
        names = list(names)
        if len(names) != len(self.columns):
            raise SchemaError(
                f"rename expects {len(self.columns)} names, got {len(names)}"
            )
        return Schema(
            Column(name, col.dtype, None, col.nullable)
            for name, col in zip(names, self.columns)
        )

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def index_of(self, reference: str) -> int:
        """Position of the column named by ``reference``.

        Raises :class:`UnknownColumnError` or :class:`AmbiguousColumnError`.
        """
        cached = self._index.get(reference)
        if cached is not None:
            return cached
        matches = [
            i for i, col in enumerate(self.columns) if col.matches(reference)
        ]
        if not matches:
            raise UnknownColumnError(
                reference, [c.qualified_name for c in self.columns]
            )
        if len(matches) > 1:
            raise AmbiguousColumnError(
                reference, [self.columns[i].qualified_name for i in matches]
            )
        self._index[reference] = matches[0]
        return matches[0]

    def column(self, reference: str) -> Column:
        return self.columns[self.index_of(reference)]

    def has(self, reference: str) -> bool:
        try:
            self.index_of(reference)
            return True
        except UnknownColumnError:
            return False
        except AmbiguousColumnError:
            return True

    def names(self) -> list[str]:
        return [col.name for col in self.columns]

    def qualified_names(self) -> list[str]:
        return [col.qualified_name for col in self.columns]

    def indices_of(self, references: Iterable[str]) -> list[int]:
        return [self.index_of(ref) for ref in references]

    def types(self, positions: Iterable[int]) -> list[DataType]:
        """The column types at ``positions`` (what keys are chosen by)."""
        return [self.columns[p].dtype for p in positions]

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, index: int) -> Column:
        return self.columns[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(
            f"{c.qualified_name}:{c.dtype.value}" for c in self.columns
        )
        return f"Schema({inner})"

    def describe(self) -> str:
        """Multi-line human-readable description (used by examples/docs)."""
        width = max((len(c.qualified_name) for c in self.columns), default=0)
        lines = [
            f"  {c.qualified_name:<{width}}  {c.dtype.value}"
            f"{'' if c.nullable else '  NOT NULL'}"
            for c in self.columns
        ]
        return "\n".join(lines)
