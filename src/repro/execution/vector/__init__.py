"""Batch-at-a-time columnar execution: how every plan runs.

A plan compiler walks the *physical* plan the planner produced,
identifies straight-line operator chains between pipeline breakers, and
fuses each chain into a single per-:class:`ColumnBatch` loop. Operators
with no batched implementation (correlated Apply, Exists, nested-loop
join) stay on their row-at-a-time iterators in :mod:`repro.execution` —
chunked into batches at the boundary — so every plan compiles, and those
iterators remain the reference the compiled plan is tested against
(``PhysicalOperator.execute`` on the same plan; the fuzz driver's
``--profile engine`` sweeps the difference).

Design contract (see DESIGN.md §12): for any plan, the compiled nodes
produce *identical rows in identical order*, *identical deterministic
Counters*, *identical MetricsRegistry snapshots* (time excluded), and
*identical typed budget errors* as the row iterators. Batching is an
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
