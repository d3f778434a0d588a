"""Aggregation physical operators.

:class:`PHashAggregate` implements GROUP BY via a hash table of accumulator
lists, and degenerates to the scalar aggregate when the key list is empty
(one output row, even on empty input — ``count(*)`` is then 0 and other
aggregates NULL, the behaviour the paper's emptyOnEmpty analysis tracks).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.algebra.expressions import AggregateAccumulator, AggregateCall
from repro.execution.base import PhysicalOperator
from repro.execution.context import ExecutionContext
from repro.storage.schema import Column, Schema
from repro.storage.table import Row
from repro.storage.types import key_function, raw_keys


def _output_schema(
    child_schema: Schema, keys: Sequence[str], aggregates: Sequence[AggregateCall]
) -> Schema:
    columns = [child_schema.column(key) for key in keys]
    for aggregate in aggregates:
        columns.append(
            Column(aggregate.output_name(), aggregate.result_type(child_schema))
        )
    return Schema(columns)


class _CompiledAggregates:
    """Shared compilation of aggregate argument expressions."""

    def __init__(self, child_schema: Schema, aggregates: Sequence[AggregateCall]):
        self.calls = tuple(aggregates)
        self.argument_evaluators = [
            None if call.argument is None else call.argument.compile(child_schema)
            for call in self.calls
        ]

    def new_accumulators(self) -> list[AggregateAccumulator]:
        return [AggregateAccumulator(call) for call in self.calls]

    def feed(
        self,
        accumulators: Sequence[AggregateAccumulator],
        row: Row,
        ctx: ExecutionContext,
    ) -> None:
        for accumulator, evaluate in zip(accumulators, self.argument_evaluators):
            value = None if evaluate is None else evaluate(row, ctx)
            accumulator.add(value)

    @staticmethod
    def results(accumulators: Sequence[AggregateAccumulator]) -> tuple:
        return tuple(acc.result() for acc in accumulators)


class PHashAggregate(PhysicalOperator):
    """Hash-partitioned GROUP BY / scalar aggregate."""

    def __init__(
        self,
        child: PhysicalOperator,
        keys: Sequence[str],
        aggregates: Sequence[AggregateCall],
    ):
        self.child = child
        self.keys = tuple(keys)
        self.aggregates = tuple(aggregates)
        self.schema = _output_schema(child.schema, keys, aggregates)
        self._key_positions = child.schema.indices_of(keys)
        key_types = child.schema.types(self._key_positions)
        self._key = key_function(key_types)
        self._raw = raw_keys(key_types)  # key values are their own keys
        self._compiled = _CompiledAggregates(child.schema, aggregates)

    def _execute(self, ctx: ExecutionContext) -> Iterator[Row]:
        counters = ctx.counters
        compiled = self._compiled
        if not self.keys:
            accumulators = compiled.new_accumulators()
            for row in self.child.execute(ctx):
                compiled.feed(accumulators, row, ctx)
            counters.rows += 1
            yield compiled.results(accumulators)
            return

        groups: dict[tuple, tuple[Row, list[AggregateAccumulator]]] = {}
        key_of = self._key
        raw = self._raw
        for row in self.child.execute(ctx):
            key_values = tuple(row[i] for i in self._key_positions)
            key = key_values if raw else key_of(key_values)
            counters.hash_inserts += 1
            entry = groups.get(key)
            if entry is None:
                entry = (key_values, compiled.new_accumulators())
                groups[key] = entry
            compiled.feed(entry[1], row, ctx)
        for key_values, accumulators in groups.values():
            counters.rows += 1
            yield key_values + compiled.results(accumulators)

    def children(self) -> tuple[PhysicalOperator, ...]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(self.keys)
        aggs = ", ".join(str(a) for a in self.aggregates)
        if not keys:
            return f"Aggregate[{aggs}]"
        return f"HashAggregate[{keys}][{aggs}]"
