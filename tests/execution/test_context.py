"""Tests for execution contexts and counters."""

import pytest

from repro.errors import ExecutionError
from repro.execution.context import Counters, ExecutionContext


class TestCounters:
    def test_snapshot_covers_all_fields(self):
        counters = Counters()
        counters.rows = 5
        counters.buffered_cells = 8
        snap = counters.snapshot()
        assert snap["rows"] == 5
        assert snap["buffered_cells"] == 8

    def test_total_work_weights_cells(self):
        counters = Counters()
        counters.rows = 10
        counters.buffered_cells = 40
        assert counters.total_work == 10 + 10


class TestExecutionContext:
    def test_scalar_binding(self):
        ctx = ExecutionContext().with_scalars({"p": 42})
        assert ctx.scalar("p") == 42

    def test_unbound_scalar_raises(self):
        with pytest.raises(ExecutionError):
            ExecutionContext().scalar("missing")

    def test_relation_binding(self):
        rows = [(1,), (2,)]
        ctx = ExecutionContext().with_relation("g", rows)
        assert ctx.relation("g") is rows

    def test_unbound_relation_raises(self):
        with pytest.raises(ExecutionError):
            ExecutionContext().relation("g")

    def test_child_contexts_share_counters(self):
        parent = ExecutionContext()
        child = parent.with_scalars({"x": 1})
        child.counters.rows += 3
        assert parent.counters.rows == 3

    def test_child_bindings_do_not_leak_up(self):
        parent = ExecutionContext()
        parent.with_scalars({"x": 1})
        with pytest.raises(ExecutionError):
            parent.scalar("x")

    def test_nested_shadowing(self):
        outer = ExecutionContext().with_scalars({"x": 1})
        inner = outer.with_scalars({"x": 2})
        assert inner.scalar("x") == 2
        assert outer.scalar("x") == 1

    def test_error_lists_bound_names(self):
        ctx = ExecutionContext().with_scalars({"alpha": 1, "beta": 2})
        with pytest.raises(ExecutionError) as excinfo:
            ctx.scalar("gamma")
        assert "alpha" in str(excinfo.value)
