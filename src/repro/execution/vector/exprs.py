"""Columnwise expression kernels for the vector engine.

:func:`compile_batch` turns a scalar :class:`~repro.algebra.expressions.
Expression` into a function ``(batch, ctx) -> list`` producing one output
value per batch row. The kernels are *semantically identical* to the
row-at-a-time evaluators in :mod:`repro.algebra.expressions` — including
three-valued logic, NULL propagation, error types, and (crucially) which
errors can be raised at all:

* ``And``/``Or`` mirror the scalar short-circuit by evaluating operand
  *k* only on the rows still undecided after operand *k-1*. A predicate
  like ``x <> 0 AND 10 / x > 1`` therefore never divides by zero on the
  vector path either. (When several rows are erroneous, *which* row's
  error surfaces may differ between engines; differential tests treat
  matching error types as agreement.)
* ``CaseWhen`` and any expression type without a kernel fall back to the
  scalar evaluator applied per row — correctness first, speed where it
  matters.

Speed comes from specialization where it is provably safe: comparisons
and ``+``/``-``/``*`` between columns whose static types rule out type
errors run as plain comprehensions over C-level operators, skipping the
per-value ``compare_values``/``isinstance`` ceremony of the generic
path. The static gate uses :meth:`Expression.infer`; ``ANY`` always
takes the generic kernel, and a NaN on a FLOAT side is compared by the
generic rule. The generic kernels of comparisons, arithmetic and IN lists
map the row evaluators' own per-value functions (``comparison_function``,
``arithmetic_function``, ``in_list``) over the zipped columns, so each
rule is written once.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, List

from repro.algebra.expressions import (
    _COMPARISON_TESTS,
    SCALAR_FUNCTIONS,
    And,
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    Parameter,
    arithmetic_function,
    comparison_function,
    in_list,
)
from repro.errors import ExecutionError
from repro.storage.schema import Schema
from repro.storage.types import DataType, compare_values

from repro.execution.vector.batch import ColumnBatch

#: ``(batch, ctx) -> list`` — one value per logical batch row.
BatchEvaluator = Callable[[ColumnBatch, Any], List[Any]]

_NUMERIC = (DataType.INTEGER, DataType.FLOAT)

_CMP_OPERATORS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_batch(expr: Expression, schema: Schema) -> BatchEvaluator:
    """Compile ``expr`` against ``schema`` into a per-batch kernel."""
    kernel = _KERNELS.get(type(expr))
    if kernel is not None:
        return kernel(expr, schema)
    return _scalar_fallback(expr, schema)


def _scalar_fallback(expr: Expression, schema: Schema) -> BatchEvaluator:
    """Row-at-a-time evaluation of one expression over the batch."""
    scalar = expr.compile(schema)
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [scalar(row, ctx) for row in batch.rows()]
    return evaluate


# ----------------------------------------------------------------------
# Leaf kernels
# ----------------------------------------------------------------------

def _compile_column(expr: ColumnRef, schema: Schema) -> BatchEvaluator:
    position = schema.index_of(expr.name)
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return batch.column(position)  # zero-copy
    return evaluate


def _compile_literal(expr: Literal, schema: Schema) -> BatchEvaluator:
    value = expr.value
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [value] * batch.length
    return evaluate


def _compile_parameter(expr: Parameter, schema: Schema) -> BatchEvaluator:
    name = expr.name
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        if ctx is None:
            raise ExecutionError(f"parameter {name!r} referenced outside an Apply")
        return [ctx.scalar(name)] * batch.length
    return evaluate


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

def _compile_comparison(expr: Comparison, schema: Schema) -> BatchEvaluator:
    left = compile_batch(expr.left, schema)
    right = compile_batch(expr.right, schema)
    lt = expr.left.infer(schema)
    rt = expr.right.infer(schema)
    fast = (lt in _NUMERIC and rt in _NUMERIC) or (
        lt is rt and lt in (DataType.STRING, DataType.DATE)
    )
    test = _COMPARISON_TESTS[expr.op]
    if fast:
        cmp_op = _CMP_OPERATORS[expr.op.value]
        if DataType.FLOAT not in (lt, rt):
            def evaluate(batch: ColumnBatch, ctx: Any) -> list:
                return [
                    None if lv is None or rv is None else cmp_op(lv, rv)
                    for lv, rv in zip(left(batch, ctx), right(batch, ctx))
                ]
        else:
            # A NaN side is compared by compare_values' NaN rule.
            def evaluate(batch: ColumnBatch, ctx: Any) -> list:
                return [
                    None
                    if lv is None or rv is None
                    else cmp_op(lv, rv)
                    if lv == lv and rv == rv
                    else test(compare_values(lv, rv))
                    for lv, rv in zip(left(batch, ctx), right(batch, ctx))
                ]
        return evaluate

    compare = comparison_function(expr.op)
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [compare(lv, rv) for lv, rv in zip(left(batch, ctx), right(batch, ctx))]
    return evaluate


# ----------------------------------------------------------------------
# Kleene connectives with short-circuit masking
# ----------------------------------------------------------------------

def _compile_connective(expr: Expression, schema: Schema, is_and: bool) -> BatchEvaluator:
    compiled = [compile_batch(op, schema) for op in expr.operands]
    decided = False if is_and else True  # the absorbing value

    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        result = list(compiled[0](batch, ctx))
        for fn in compiled[1:]:
            alive = [i for i, v in enumerate(result) if v is not decided]
            if not alive:
                break
            if len(alive) == batch.length:
                values = fn(batch, ctx)
                for i, v in enumerate(values):
                    if v is decided:
                        result[i] = decided
                    elif v is None:
                        result[i] = None
            else:
                sub = batch.select(alive)
                values = fn(sub, ctx)
                for i, v in zip(alive, values):
                    if v is decided:
                        result[i] = decided
                    elif v is None:
                        result[i] = None
        return result

    return evaluate


def _compile_and(expr: And, schema: Schema) -> BatchEvaluator:
    return _compile_connective(expr, schema, is_and=True)


def _compile_or(expr: Or, schema: Schema) -> BatchEvaluator:
    return _compile_connective(expr, schema, is_and=False)


def _compile_not(expr: Not, schema: Schema) -> BatchEvaluator:
    inner = compile_batch(expr.operand, schema)
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [None if v is None else not v for v in inner(batch, ctx)]
    return evaluate


def _compile_isnull(expr: IsNull, schema: Schema) -> BatchEvaluator:
    inner = compile_batch(expr.operand, schema)
    negated = expr.negated
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        if negated:
            return [v is not None for v in inner(batch, ctx)]
        return [v is None for v in inner(batch, ctx)]
    return evaluate


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------

_FAST_ARITH = {
    ArithmeticOp.ADD: operator.add,
    ArithmeticOp.SUB: operator.sub,
    ArithmeticOp.MUL: operator.mul,
}


def _compile_arithmetic(expr: Arithmetic, schema: Schema) -> BatchEvaluator:
    left = compile_batch(expr.left, schema)
    right = compile_batch(expr.right, schema)
    op = expr.op
    lt = expr.left.infer(schema)
    rt = expr.right.infer(schema)
    fast_op = _FAST_ARITH.get(op)
    if fast_op is not None and lt in _NUMERIC and rt in _NUMERIC:
        # Typed numeric columns cannot hold bools or non-numbers, so the
        # per-value TypeCheck of the generic path is statically satisfied.
        def evaluate(batch: ColumnBatch, ctx: Any) -> list:
            return [
                None if lv is None or rv is None else fast_op(lv, rv)
                for lv, rv in zip(left(batch, ctx), right(batch, ctx))
            ]
        return evaluate

    apply = arithmetic_function(op)
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [apply(lv, rv) for lv, rv in zip(left(batch, ctx), right(batch, ctx))]
    return evaluate


def _compile_negate(expr: Negate, schema: Schema) -> BatchEvaluator:
    inner = compile_batch(expr.operand, schema)
    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [None if v is None else -v for v in inner(batch, ctx)]
    return evaluate


# ----------------------------------------------------------------------
# IN lists, function calls
# ----------------------------------------------------------------------

def _compile_inlist(expr: InList, schema: Schema) -> BatchEvaluator:
    if not all(isinstance(item, Literal) for item in expr.items):
        # Non-constant IN lists keep the scalar left-to-right evaluation
        # (later items are not evaluated once one matches).
        return _scalar_fallback(expr, schema)
    inner = compile_batch(expr.operand, schema)
    candidates = [item.value for item in expr.items]
    negated = expr.negated

    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        return [in_list(value, candidates, negated) for value in inner(batch, ctx)]
    return evaluate


def _compile_function(expr: FunctionCall, schema: Schema) -> BatchEvaluator:
    fn = SCALAR_FUNCTIONS[expr.name.lower()]
    compiled = [compile_batch(arg, schema) for arg in expr.args]
    if not compiled:
        def evaluate(batch: ColumnBatch, ctx: Any) -> list:
            return [fn() for _ in range(batch.length)]
        return evaluate

    def evaluate(batch: ColumnBatch, ctx: Any) -> list:
        columns = [c(batch, ctx) for c in compiled]
        return [fn(*values) for values in zip(*columns)]
    return evaluate


_KERNELS: dict[type, Callable[[Any, Schema], BatchEvaluator]] = {
    ColumnRef: _compile_column,
    Literal: _compile_literal,
    Parameter: _compile_parameter,
    Comparison: _compile_comparison,
    And: _compile_and,
    Or: _compile_or,
    Not: _compile_not,
    IsNull: _compile_isnull,
    Arithmetic: _compile_arithmetic,
    Negate: _compile_negate,
    InList: _compile_inlist,
    FunctionCall: _compile_function,
    # CaseWhen and anything new: scalar fallback via compile_batch's default.
}
