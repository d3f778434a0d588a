"""One structural traversal for the three trees of frozen dataclasses.

Logical operators, scalar expressions and the SQL AST are frozen
dataclasses. A traversal names the node classes it enters, its *kinds*: a
field is *structural* under those kinds when its type hint mentions one of
them (``Expression``, ``Expression | None``, ``tuple[Expression, ...]``,
``tuple[tuple[Expression, str], ...]``) and *payload* otherwise. Each class
is classified once per kinds, on first use (:class:`Layout`); from that come

* ``children`` — the structural values in field order, tuples flattened
  (``CaseWhen.whens`` pairs too), ``None`` skipped;
* ``rebuild`` — the node over new children, positionally (``cls(*fields)``),
  so every payload field is kept; a wrong number of children is a
  :class:`~repro.errors.PlanError`;
* ``payload`` — the non-structural field names, the optimizer's interning
  key;
* :func:`walk` and :func:`rewrite` — pre-order iteration, and a bottom-up
  rewrite that rebuilds only the nodes whose structural fields changed, so
  an unchanged tree comes back as the same object.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from operator import attrgetter
from typing import Any, Callable, Iterator, Sequence

from repro.errors import PlanError

Kinds = tuple[type, ...]

# How a structural field holds its nodes: exactly one node, a tuple of
# nodes, or anything else (None, or tuples mixing nodes and payload).
_ONE, _MANY, _NESTED = "one", "many", "nested"


def _mentions(hint: Any, kinds: Kinds) -> bool:
    if isinstance(hint, type) and issubclass(hint, kinds):
        return True
    return any(_mentions(arg, kinds) for arg in typing.get_args(hint))


def _shape(hint: Any, kinds: Kinds) -> str:
    if typing.get_origin(hint) is None:
        return _ONE
    args = typing.get_args(hint)
    if (
        typing.get_origin(hint) is tuple
        and args[1:] == (Ellipsis,)
        and isinstance(args[0], type)
        and issubclass(args[0], kinds)
    ):
        return _MANY
    return _NESTED


def _tuple_getter(names: Sequence[str]) -> Callable[[Any], tuple]:
    """``node -> (node.<name>, ...)`` (``attrgetter`` of one name returns
    the bare value)."""
    if not names:
        return lambda node: ()
    if len(names) == 1:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return attrgetter(*names)


def _flat_children(structural: tuple, kinds: Kinds) -> Callable[[Any], tuple]:
    def children(node: Any) -> tuple:
        out: list = []
        for _, get, shape in structural:
            if shape is _ONE:
                out.append(get(node))
            else:
                _flatten(get(node), kinds, out)
        return tuple(out)

    return children


def _flatten(value: Any, kinds: Kinds, out: list) -> None:
    if isinstance(value, kinds):
        out.append(value)
    elif type(value) is tuple:
        for item in value:
            _flatten(item, kinds, out)


def _refill(value: Any, kinds: Kinds, new: Sequence, position: int) -> tuple[Any, int]:
    """``value`` with its nodes replaced, in order, from ``new[position:]``."""
    if isinstance(value, kinds):
        return new[position], position + 1
    if type(value) is tuple:
        items = []
        for item in value:
            item, position = _refill(item, kinds, new, position)
            items.append(item)
        return tuple(items), position
    return value, position


class Layout:
    """One class's fields, split into structural and payload under one
    kinds tuple, and the per-class getters built from the split."""

    __slots__ = ("cls", "kinds", "structural", "payload", "values", "payload_of", "children")

    def __init__(self, cls: type, kinds: Kinds):
        hints = typing.get_type_hints(cls)
        names = [spec.name for spec in dataclasses.fields(cls)]
        structural = [name for name in names if _mentions(hints[name], kinds)]
        self.cls = cls
        self.kinds = kinds
        #: ``(position, getter, shape)`` per structural field, in field order.
        self.structural = tuple(
            (names.index(name), attrgetter(name), _shape(hints[name], kinds))
            for name in structural
        )
        self.payload = tuple(name for name in names if name not in structural)
        self.values = _tuple_getter(names)
        self.payload_of = _tuple_getter(self.payload)
        shapes = [shape for _, _, shape in self.structural]
        if all(shape is _ONE for shape in shapes):
            children = _tuple_getter(structural)
        elif shapes == [_MANY]:
            children = self.structural[0][1]
        else:
            children = _flat_children(self.structural, kinds)
        #: A plain function, so that a class can take it as its own
        #: ``children`` method.
        self.children = (
            children
            if isinstance(children, types.FunctionType)
            else lambda node: children(node)
        )

    def rebuild(self, node: Any, children: Sequence) -> Any:
        """``node`` over ``children`` (as many as ``self.children(node)``
        returns), every payload field kept."""
        if not self.structural:
            if children:
                raise PlanError(f"{self.cls.__name__} takes no children")
            return node
        values = list(self.values(node))
        position = 0
        try:
            for index, _, shape in self.structural:
                if shape is _ONE:
                    values[index] = children[position]
                    position += 1
                else:
                    values[index], position = _refill(
                        values[index], self.kinds, children, position
                    )
        except IndexError:
            position = -1
        if position != len(children):
            raise PlanError(
                f"{self.cls.__name__} takes {len(self.children(node))} "
                f"children, got {len(children)}"
            )
        return self.cls(*values)


class Layouts(dict):
    """Every class's :class:`Layout` under one kinds tuple, made on first
    lookup."""

    def __init__(self, kinds: Kinds):
        super().__init__()
        self.kinds = kinds

    def __missing__(self, cls: type) -> Layout:
        layout = self[cls] = Layout(cls, self.kinds)
        return layout


@functools.cache
def layouts(kinds: Kinds) -> Layouts:
    """The one layout table of ``kinds``."""
    return Layouts(kinds)


def lazy_children(cls: type, table: Layouts) -> Callable[[Any], tuple]:
    """``cls``'s ``children`` method until its first call, which puts the
    function built from ``cls``'s layout in its place, so the layout is
    made on first use and later calls skip the lookup."""

    def children(node: Any) -> tuple:
        own = table[cls].children
        cls.children = own
        return own(node)

    return children


def walk(node: Any, kinds: Kinds) -> Iterator[Any]:
    """``node`` and every node of ``kinds`` below it, in pre-order."""
    table = layouts(kinds)
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        children = table[type(current)].children(current)
        if children:
            stack.extend(reversed(children))


def rewrite(node: Any, kinds: Kinds, visit: Callable[[Any], Any]) -> Any:
    """Bottom-up rewrite of every node of ``kinds`` under ``node``: each
    node's structural fields are rewritten first, the node is rebuilt only
    if one of them changed, and ``visit`` maps the result. Payload fields
    are never entered."""
    return _rewrite_node(node, layouts(kinds), visit)


# Module functions, not closures over each other: a rewrite leaves no
# reference cycle behind for the cyclic collector.
def _rewrite_node(node: Any, table: Layouts, visit: Callable[[Any], Any]) -> Any:
    layout = table[type(node)]
    values = None
    for index, get, shape in layout.structural:
        old = get(node)
        if shape is _ONE:
            new = _rewrite_node(old, table, visit)
        else:
            new = _rewrite_value(old, table, visit)
        if new is not old:
            if values is None:
                values = list(layout.values(node))
            values[index] = new
    if values is not None:
        node = layout.cls(*values)
    return visit(node)


def _rewrite_value(value: Any, table: Layouts, visit: Callable[[Any], Any]) -> Any:
    if isinstance(value, table.kinds):
        return _rewrite_node(value, table, visit)
    if type(value) is tuple:
        items = [_rewrite_value(item, table, visit) for item in value]
        for new, old in zip(items, value):
            if new is not old:
                return tuple(items)
    return value
