"""Bounded, thread-safe plan cache with adaptive re-optimization.

The serve layer's workload is the paper's workload at production scale:
the same parameterized publishing-query shapes (Fig-8 formulations,
GApply views) arriving over and over, each submission paying full
parse/bind/optimize. This module caches the *optimized logical plan* of
each query shape and replays it for every later arrival of that shape.

Key design points:

* **Key = normalized shape, not text.** The normalizer
  (:mod:`repro.sql.normalize`) extracts literals into ``$N`` markers and
  the printer renders the parameterized AST to canonical text; the cache
  key is a digest of that text plus the parameter *type* signature, the
  catalog version, and the planner-option fields that steer logical
  optimization. Two textually different queries with the same shape share
  an entry; a catalog mutation (DDL, inserts — anything that bumps
  ``Catalog.version``) makes every old key unreachable, so a stale plan
  can never be looked up. Unreachable entries are swept out eagerly on
  the next store.

* **Cached artifact = optimized logical template.** Entries store the
  optimizer's chosen plan with :class:`~repro.algebra.expressions.\
  BindParameter` markers in literal positions. Execution substitutes the
  current parameter vector (markers become plain ``Literal`` nodes — a
  pure tree rewrite) and lowers the result with the per-call
  :class:`~repro.optimizer.planner.Planner`, so physical knobs (batch
  sizes, partitioning, index usage) stay per-execution and are *not*
  part of the key. Because ``BindParameter`` subclasses ``Literal``, the
  template optimization is bit-for-bit the optimization the literal query
  would get — cached and cold runs produce identical plans, rows,
  counters, and metrics.

* **Runtime feedback.** Each entry keeps the optimizer's root-row
  estimate (computed against the creation-time seed values) and compares
  it with the actual root cardinality of every execution using the
  q-error from the cardinality ratchet
  (``tests/observe/test_cardinality_qerror.py``). When the q-error
  drifts past the entry's threshold the owner re-optimizes the template
  with the *current* parameters as seeds and swaps the entry in place.
  The per-entry threshold doubles after each re-plan so an entry whose
  estimates are simply poor cannot thrash the optimizer.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.algebra.expressions import (
    AggregateCall,
    And,
    BindParameter,
    Expression,
    Literal,
    Or,
)
from repro.algebra.operators import LogicalOperator
from repro.errors import PlanError
from repro.observe.metrics import LockedCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.engine import OptimizationReport
    from repro.optimizer.planner import PlannerOptions
    from repro.sql.ast import AstQuery

#: Re-plan when max(est/actual, actual/est) (smoothed +1) exceeds this.
DEFAULT_QERROR_THRESHOLD = 4.0
#: Default number of cached templates per Database.
DEFAULT_CAPACITY = 256


def q_error(estimated: float, actual: float) -> float:
    """Symmetric relative cardinality error, smoothed against zeros.

    Same formula as the cardinality ratchet in
    ``tests/observe/test_cardinality_qerror.py``: 1.0 is perfect, k means
    off by a factor of k in either direction.
    """
    return max(
        (estimated + 1.0) / (actual + 1.0), (actual + 1.0) / (estimated + 1.0)
    )


@dataclass(frozen=True)
class PlanKey:
    """Identity of a cached plan.

    ``digest`` hashes the printer-canonicalized parameterized SQL text;
    ``type_tags`` is one tag per parameter (int vs float changes
    arithmetic semantics, str vs int changes inferred schema types);
    ``catalog_version`` pins the entry to the catalog state it was
    planned against; ``options_tag`` fingerprints the planner-option
    fields that change *logical* optimization (the disabled rules) —
    physical knobs deliberately excluded.
    """

    digest: str
    type_tags: tuple[str, ...]
    catalog_version: int
    options_tag: str


def text_digest(canonical_sql: str) -> str:
    return hashlib.sha256(canonical_sql.encode("utf-8")).hexdigest()


def options_tag(options: "PlannerOptions | None") -> str:
    """Fingerprint of the option fields that steer logical optimization."""
    if options is None or not options.disabled_rules:
        return ""
    return "rules-off=" + ",".join(sorted(options.disabled_rules))


@dataclass
class CachedPlan:
    """One cache entry: the template plan plus runtime feedback state.

    Mutable feedback fields are only touched by :class:`PlanCache`
    methods under the cache lock; readers take immutable references
    (``template``, ``report``) and never see a half-written entry.
    """

    key: PlanKey
    #: Parameterized statement AST (seeds = creation-time values); kept so
    #: re-optimization can re-seed and re-bind without re-parsing.
    statement: "AstQuery"
    #: Optimized logical plan containing BindParameter markers.
    template: LogicalOperator
    report: "OptimizationReport"
    param_count: int
    #: Optimizer's root row estimate under the creation-time seeds.
    est_rows: float
    #: Current re-plan threshold; doubles after each re-plan (backoff).
    qerror_threshold: float
    executions: int = 0
    hits: int = 0
    replans: int = 0
    max_q_error: float = 1.0
    last_q_error: float = 1.0
    last_actual_rows: int | None = None

    def describe(self) -> dict[str, Any]:
        return {
            "key": self.key.digest[:12],
            "params": self.param_count,
            "catalog_version": self.key.catalog_version,
            "est_rows": self.est_rows,
            "executions": self.executions,
            "hits": self.hits,
            "replans": self.replans,
            "max_q_error": self.max_q_error,
            "last_q_error": self.last_q_error,
            "last_actual_rows": self.last_actual_rows,
            "qerror_threshold": self.qerror_threshold,
        }


class PlanCache:
    """Bounded LRU of :class:`CachedPlan`, safe for concurrent use.

    One lock guards the LRU order, the entries, and per-entry feedback
    state; counters live in a :class:`LockedCounters` so
    ``Service.stats()`` can snapshot them without taking the cache lock.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        qerror_threshold: float = DEFAULT_QERROR_THRESHOLD,
    ):
        if capacity < 1:
            raise PlanError(f"plan cache capacity must be >= 1, got {capacity}")
        if qerror_threshold < 1.0:
            raise PlanError(
                "q-error threshold must be >= 1.0 (1.0 is a perfect "
                f"estimate), got {qerror_threshold}"
            )
        self.capacity = capacity
        self.qerror_threshold = qerror_threshold
        self.counters = LockedCounters()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PlanKey, CachedPlan]" = OrderedDict()
        #: Backed-off re-plan thresholds by *version-independent* plan
        #: shape, surviving the version-keyed entry invalidation that
        #: every catalog mutation causes. Without it a write-heavy
        #: workload with chronically bad estimates re-pays the re-plan
        #: probe (threshold reset to the default) after every mutation
        #: (DESIGN.md §13.4). Bounded like the entry LRU.
        self._shape_thresholds: "OrderedDict[tuple, float]" = OrderedDict()

    @staticmethod
    def _shape_key(key: PlanKey) -> tuple:
        return (key.digest, key.type_tags, key.options_tag)

    def seed_threshold(self, key: PlanKey) -> float:
        """The q-error threshold a fresh entry for ``key`` should start
        at: the shape's last backed-off threshold if this plan shape ever
        re-planned (under any catalog version), else the default."""
        with self._lock:
            remembered = self._shape_thresholds.get(self._shape_key(key))
        return self.qerror_threshold if remembered is None else remembered

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------

    def lookup(self, key: PlanKey) -> CachedPlan | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.counters.inc("misses")
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.counters.inc("hits")
            return entry

    def store(self, entry: CachedPlan) -> CachedPlan:
        """Publish a fully-built entry; returns the winning entry.

        Two threads can race a cold miss on the same key — both optimize,
        the first to publish wins, and the loser adopts the winner's entry
        so feedback accounting stays on one object.
        """
        with self._lock:
            current = self._entries.get(entry.key)
            if current is not None:
                self._entries.move_to_end(entry.key)
                return current
            self._sweep_stale_locked(entry.key.catalog_version)
            self._entries[entry.key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.counters.inc("evictions")
            return entry

    def record_bypass(self) -> None:
        """Count a query that was eligible to consult the cache but ran
        uncached (``optimize=False`` or an explicit opt-out)."""
        self.counters.inc("bypass")

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _sweep_stale_locked(self, current_version: int) -> None:
        stale = [
            key
            for key in self._entries
            if key.catalog_version != current_version
        ]
        for key in stale:
            del self._entries[key]
        if stale:
            self.counters.add_many(invalidations=len(stale))

    def invalidate_stale(self, current_version: int) -> int:
        """Drop entries planned against any other catalog version.

        Version-keyed lookups already make them unreachable; this frees
        the memory eagerly. Returns the number of entries dropped.
        """
        with self._lock:
            before = len(self._entries)
            self._sweep_stale_locked(current_version)
            return before - len(self._entries)

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            if dropped:
                self.counters.add_many(invalidations=dropped)
            self._entries.clear()
            self._shape_thresholds.clear()
            return dropped

    # ------------------------------------------------------------------
    # Runtime feedback
    # ------------------------------------------------------------------

    def record_execution(self, entry: CachedPlan, actual_rows: int) -> bool:
        """Fold one execution's actual root cardinality into the entry.

        Returns True when the q-error against the entry's planning-time
        estimate has drifted past the entry's threshold — the caller
        should re-optimize with the current parameters and call
        :meth:`replace`.
        """
        error = q_error(entry.est_rows, actual_rows)
        with self._lock:
            entry.executions += 1
            entry.last_actual_rows = actual_rows
            entry.last_q_error = error
            entry.max_q_error = max(entry.max_q_error, error)
            return error > entry.qerror_threshold

    def replace(self, old: CachedPlan, new: CachedPlan) -> CachedPlan:
        """Swap a re-optimized entry in, preserving accounting history.

        The replacement inherits the old entry's execution/hit counts and
        doubles its q-error threshold so chronically bad estimates back
        off instead of re-planning on every execution.
        """
        with self._lock:
            new.executions = old.executions
            new.hits = old.hits
            new.replans = old.replans + 1
            new.qerror_threshold = old.qerror_threshold * 2.0
            shape = self._shape_key(old.key)
            self._shape_thresholds[shape] = new.qerror_threshold
            self._shape_thresholds.move_to_end(shape)
            while len(self._shape_thresholds) > 4 * self.capacity:
                self._shape_thresholds.popitem(last=False)
            if self._entries.get(old.key) is old:
                self._entries[old.key] = new
                self._entries.move_to_end(old.key)
            self.counters.inc("replans")
            return new

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> list[CachedPlan]:
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> dict[str, Any]:
        data = self.counters.snapshot()
        for name in ("hits", "misses", "evictions", "invalidations",
                     "replans", "bypass"):
            data.setdefault(name, 0)
        data["size"] = len(self)
        data["capacity"] = self.capacity
        return data


# ----------------------------------------------------------------------
# Parameter substitution over optimized logical plans
# ----------------------------------------------------------------------


def substitute_parameters(
    plan: LogicalOperator, values: tuple[Any, ...]
) -> LogicalOperator:
    """Replace every ``BindParameter`` marker with the bound value.

    Pure structural rewrite: untouched subtrees are shared with the
    template (they are immutable), rebuilt nodes recompute their cached
    schemas against the new literal types.
    """

    def visit(expr: Expression) -> Expression:
        if isinstance(expr, BindParameter):
            if expr.index >= len(values):
                raise PlanError(
                    f"plan template references parameter ${expr.index + 1} "
                    f"but only {len(values)} values were bound"
                )
            return Literal(values[expr.index])
        return expr

    return _rewrite_plan(plan, visit)


def collect_parameters(plan: LogicalOperator) -> list[BindParameter]:
    """Every ``BindParameter`` in the plan, in deterministic tree order."""
    found: list[BindParameter] = []

    def visit(expr: Expression) -> Expression:
        if isinstance(expr, BindParameter):
            found.append(expr)
        return expr

    _rewrite_plan(plan, visit)
    return found


_ExprVisitor = Callable[[Expression], Expression]


def _rewrite_plan(node: LogicalOperator, visit: _ExprVisitor) -> LogicalOperator:
    """Generic bottom-up rewrite of every expression embedded in a plan.

    Walks the operator dataclass fields: child operators recurse,
    expressions (including those inside ``(expr, name)`` projection pairs
    and ``AggregateCall`` arguments) go through ``visit``, everything
    else (names, flags, counts) passes through untouched.
    """
    changes: dict[str, Any] = {}
    for spec in dataclasses.fields(node):
        value = getattr(node, spec.name)
        rewritten = _rewrite_value(value, visit)
        if rewritten is not value:
            changes[spec.name] = rewritten
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


def _rewrite_value(value: Any, visit: _ExprVisitor) -> Any:
    if isinstance(value, LogicalOperator):
        return _rewrite_plan(value, visit)
    if isinstance(value, Expression):
        return _rewrite_expression(value, visit)
    if isinstance(value, AggregateCall):
        if value.argument is None:
            return value
        argument = _rewrite_expression(value.argument, visit)
        if argument is value.argument:
            return value
        return AggregateCall(value.function, argument, value.distinct)
    if isinstance(value, tuple):
        rewritten = tuple(_rewrite_value(item, visit) for item in value)
        if all(a is b for a, b in zip(rewritten, value)):
            return value
        return rewritten
    return value


def _rewrite_expression(expr: Expression, visit: _ExprVisitor) -> Expression:
    # And/Or take *operands in __init__, so dataclasses.replace would
    # mis-call them — rebuild explicitly. Everything else is a plain
    # frozen dataclass whose expression-valued fields recurse.
    if isinstance(expr, (And, Or)):
        operands = tuple(
            _rewrite_expression(op, visit) for op in expr.operands
        )
        if all(a is b for a, b in zip(operands, expr.operands)):
            return visit(expr)
        return visit(type(expr)(*operands))
    if not dataclasses.is_dataclass(expr):
        return visit(expr)
    changes: dict[str, Any] = {}
    for spec in dataclasses.fields(expr):
        value = getattr(expr, spec.name)
        rewritten = _rewrite_expr_value(value, visit)
        if rewritten is not value:
            changes[spec.name] = rewritten
    if not changes:
        return visit(expr)
    return visit(dataclasses.replace(expr, **changes))


def _rewrite_expr_value(value: Any, visit: _ExprVisitor) -> Any:
    if isinstance(value, Expression):
        return _rewrite_expression(value, visit)
    if isinstance(value, tuple):
        rewritten = tuple(_rewrite_expr_value(item, visit) for item in value)
        if all(a is b for a, b in zip(rewritten, value)):
            return value
        return rewritten
    return value
