"""Column-feed aggregate states for the vector engine.

The row engine's :class:`~repro.algebra.expressions.AggregateAccumulator`
takes one value per ``add`` call. Here each aggregate keeps a *state*
object fed a whole column (or column slice) at a time, with specialized
updates where the argument's static type proves them exact:

* ``COUNT(*)`` / ``COUNT(x)`` — length arithmetic and ``list.count``.
* ``SUM``/``AVG`` over INTEGER — built-in ``sum`` per slice (integer
  addition is associative, so regrouping is exact).
* ``SUM``/``AVG`` over FLOAT — a sequential loop in the row engine's
  exact addition order; IEEE addition is *not* associative, and the
  equivalence contract promises bit-identical results.
* ``MIN``/``MAX`` over any non-ANY type — native ``min``/``max`` on the
  argument type's key (:func:`~repro.storage.types.value_key`; none for
  INTEGER, STRING and DATE), which orders like ``compare_values`` (NaN
  above +inf) once cross-type mixes are ruled out (values in a typed
  column are homogeneous by ``check_value``).

``DISTINCT`` aggregates and ``ANY``-typed arguments wrap the row
accumulator unchanged — correctness is never traded for the fast path.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Sequence

from repro.algebra.expressions import (
    AggregateAccumulator,
    AggregateCall,
    AggregateFunction,
)
from repro.storage.types import DataType, raw_keys, value_key


class GenericState:
    """Wrap the row engine's accumulator: exact semantics, no speedup."""

    __slots__ = ("acc",)

    def __init__(self, call: AggregateCall):
        self.acc = AggregateAccumulator(call)

    def update(self, values: Sequence) -> None:
        add = self.acc.add
        for value in values:
            add(value)

    def result(self) -> Any:
        return self.acc.result()


class CountStarState:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def update_n(self, n: int) -> None:
        self.count += n

    def result(self) -> int:
        return self.count


class CountState:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def update(self, values: Sequence) -> None:
        self.count += len(values) - values.count(None)

    def result(self) -> int:
        return self.count


class SumState:
    """SUM/AVG; ``exact`` chooses sliced ``sum`` vs the sequential loop."""

    __slots__ = ("_sum", "count", "avg", "exact")

    def __init__(self, avg: bool, exact: bool):
        self._sum: Any = None
        self.count = 0
        self.avg = avg
        self.exact = exact

    def update(self, values: Sequence) -> None:
        if self.exact:
            non_null = [v for v in values if v is not None]
            if non_null:
                self.count += len(non_null)
                part = sum(non_null)
                self._sum = part if self._sum is None else self._sum + part
            return
        # Float addition: keep the row engine's left-to-right order.
        total = self._sum
        count = self.count
        for value in values:
            if value is not None:
                count += 1
                total = value if total is None else total + value
        self._sum = total
        self.count = count

    def result(self) -> Any:
        if self.avg:
            return None if self.count == 0 else self._sum / self.count
        return self._sum


def _nan_free(values: Sequence) -> bool:
    """True when no value is NaN: a NaN makes the sum NaN. (So does
    ``inf - inf``, and an int beyond float range gives no sum: both only
    cost the keyed path.)"""
    try:
        total = sum(values)
    except OverflowError:
        return False
    return total == total


class ExtremeState:
    """MIN (``pick`` = ``min``) or MAX (``max``) under ``key``, the
    argument type's order key (None: the values order themselves). Ties
    keep the earliest value, as the row accumulator's strict test does."""

    __slots__ = ("value", "pick", "key")

    def __init__(self, pick, key):
        self.value: Any = None
        self.pick = pick
        self.key = key

    def update(self, values: Sequence) -> None:
        non_null = [v for v in values if v is not None]
        if non_null:
            pick = self.pick
            key = self.key
            if key is not None and _nan_free(non_null):
                key = None  # no NaN: the values order themselves
            candidate = pick(non_null, key=key)
            if self.value is not None:
                candidate = pick(self.value, candidate, key=self.key)
            self.value = candidate

    def result(self) -> Any:
        return self.value


def state_factory(call: AggregateCall, argument_dtype: DataType) -> Callable[[], Any]:
    """A constructor of the fastest state whose specialization is
    statically safe (decided once, so a fresh state costs one call)."""
    function = call.function
    if function is AggregateFunction.COUNT_STAR:
        return CountStarState
    if call.distinct:
        return partial(GenericState, call)
    if function is AggregateFunction.COUNT:
        return CountState
    if argument_dtype is DataType.ANY:
        return partial(GenericState, call)
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        avg = function is AggregateFunction.AVG
        if argument_dtype is DataType.INTEGER:
            return partial(SumState, avg, True)
        if argument_dtype is DataType.FLOAT:
            return partial(SumState, avg, False)
        return partial(GenericState, call)
    if function in (AggregateFunction.MIN, AggregateFunction.MAX):
        key = None if raw_keys([argument_dtype]) else value_key(argument_dtype)
        pick = min if function is AggregateFunction.MIN else max
        return partial(ExtremeState, pick, key)
    return partial(GenericState, call)


def run_results(factory: Callable[[], Any], column, runs) -> list:
    """One result per ``(start, end)`` run of ``column``: what a fresh
    ``factory()`` state fed that slice returns. ``column`` is None for
    ``COUNT(*)``. The common states' loops are inlined, since a segmented
    GApply reduces one run per group and groups may hold a row or two."""
    if factory is CountStarState:
        return [end - start for start, end in runs]
    if factory is CountState:
        return [
            end - start - column[start:end].count(None) for start, end in runs
        ]
    if isinstance(factory, partial) and factory.func is SumState:
        avg, exact = factory.args
        results = []
        for start, end in runs:
            if exact:
                values = [v for v in column[start:end] if v is not None]
                count = len(values)
                total = sum(values) if values else None
            else:
                # Float addition: the row engine's left-to-right order.
                total = None
                count = 0
                for value in column[start:end]:
                    if value is not None:
                        count += 1
                        total = value if total is None else total + value
            results.append(
                (None if count == 0 else total / count) if avg else total
            )
        return results
    results = []
    for start, end in runs:
        state = factory()
        state.update(column[start:end])
        results.append(state.result())
    return results
