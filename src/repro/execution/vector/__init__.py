"""Batch-at-a-time columnar execution (the "vector" engine).

This subpackage is the alternative to the row-at-a-time Volcano
iterators in :mod:`repro.execution`: a plan compiler walks a *physical*
plan produced by the ordinary planner, identifies straight-line operator
chains between pipeline breakers, and fuses each chain into a single
per-:class:`ColumnBatch` loop. Operators with no batched implementation
(correlated Apply, nested-loop join, Exists, spilling GApply,
stream aggregation) transparently fall back to their Volcano iterators —
chunked into batches at the boundary — so *every* plan runs under either
engine and the Volcano path stays the correctness oracle.

The engine is wired through
:class:`repro.optimizer.planner.PlannerOptions` (``engine="vector"``)
and ``Database.sql(..., engine="vector")``; the fuzz plan-space driver
runs both engines differentially (``--profile engine``).

Design contract (see DESIGN.md §12): for any plan, the vector engine
produces *identical rows in identical order*, *identical deterministic
Counters*, *identical MetricsRegistry snapshots* (time excluded), and
*identical typed budget errors* as the Volcano engine. Batching is an
implementation detail, never a semantic one.
"""

from repro.execution.vector.batch import DEFAULT_BATCH_SIZE, ColumnBatch
from repro.execution.vector.compiler import FallbackNote, VectorPlan, compile_plan
from repro.execution.vector.exprs import compile_batch

__all__ = [
    "ColumnBatch",
    "DEFAULT_BATCH_SIZE",
    "FallbackNote",
    "VectorPlan",
    "compile_plan",
    "compile_batch",
]
