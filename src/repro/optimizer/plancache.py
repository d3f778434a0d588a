"""Bounded, thread-safe plan cache.

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
  can never be looked up. Entries older than the one being stored are
  swept out eagerly; a store from an older snapshot leaves newer entries
  alone.

* **Cached artifact = optimized logical template.** Entries store the
  optimizer's chosen plan with :class:`~repro.algebra.expressions.\
  BindParameter` markers in literal positions. Execution substitutes the
  current parameter vector (markers become plain ``Literal`` nodes — the
  shared bottom-up rewrite of :mod:`repro.algebra.tree`, which keeps
  every other field of a rebuilt node) and lowers the result with the
  per-call :class:`~repro.optimizer.planner.Planner`, so physical knobs
  (batch sizes, partitioning, index usage) stay per-execution and are
  *not* part of the key. Because ``BindParameter`` subclasses ``Literal``, the
  template optimization is bit-for-bit the optimization the literal query
  would get — cached and cold runs produce identical plans, rows,
  counters, and metrics.

* **No runtime re-planning.** An entry serves the plan its shape's first
  arrival chose until the catalog version moves on or the LRU evicts it;
  the paper's optimizer is a compile-time search, and nothing measured
  showed re-optimizing on a drifting cardinality changing a plan
  (DESIGN.md §13.3). The contract — a cached run is the uncached run,
  and hits + misses = runs — is stated once as an executable model in
  :mod:`repro.fuzz.plancache`.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.algebra.expressions import (
    AggregateCall,
    BindParameter,
    Expression,
    Literal,
)
from repro.algebra.operators import LogicalOperator
from repro.algebra.tree import rewrite
from repro.errors import PlanError
from repro.observe.metrics import LockedCounters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optimizer.engine import OptimizationReport
    from repro.optimizer.planner import PlannerOptions

#: Default number of cached templates per Database.
DEFAULT_CAPACITY = 256


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
    """One cache entry: the template plan and how often it was served.

    ``hits`` is only touched by :class:`PlanCache` under the cache lock;
    readers take immutable references (``template``, ``report``) and
    never see a half-written entry.
    """

    key: PlanKey
    #: Optimized logical plan containing BindParameter markers.
    template: LogicalOperator
    report: "OptimizationReport"
    hits: int = 0


class PlanCache:
    """Bounded LRU of :class:`CachedPlan`, safe for concurrent use.

    One lock guards the LRU order, the entries, and their hit counts;
    counters live in a :class:`LockedCounters` so ``Service.stats()`` can
    snapshot them without taking the cache lock.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise PlanError(f"plan cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.counters = LockedCounters()
        self._lock = threading.Lock()
        self._entries: "OrderedDict[PlanKey, CachedPlan]" = OrderedDict()

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
        so hit accounting stays on one object.
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

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------

    def _sweep_stale_locked(self, storing_version: int) -> None:
        """Drop the entries planned against a catalog version older than
        the entry being stored. A miss on an old snapshot stores an entry
        older than the current ones, and must not sweep them."""
        stale = [
            key
            for key in self._entries
            if key.catalog_version < storing_version
        ]
        for key in stale:
            del self._entries[key]
        if stale:
            self.counters.add_many(invalidations=len(stale))

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            if dropped:
                self.counters.add_many(invalidations=dropped)
            self._entries.clear()
            return dropped

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
        # Nothing re-plans any more, so ``replans`` always reads 0; it stays
        # because the timing spine's workloads read it.
        for name in ("hits", "misses", "evictions", "invalidations", "replans"):
            data.setdefault(name, 0)
        data["size"] = len(self)
        data["capacity"] = self.capacity
        return data


# ----------------------------------------------------------------------
# Parameter substitution over optimized logical plans
# ----------------------------------------------------------------------


#: What a template substitution enters: the operators, the expressions in
#: their fields and the aggregate calls' arguments.
_PLAN = (LogicalOperator, Expression, AggregateCall)


def substitute_parameters(
    plan: LogicalOperator, values: tuple[Any, ...]
) -> LogicalOperator:
    """Replace every ``BindParameter`` marker with the bound value.

    Pure structural rewrite (:func:`repro.algebra.tree.rewrite`): untouched
    subtrees are shared with the template (they are immutable), rebuilt
    nodes keep every other field and recompute their cached schemas
    against the new literal types.
    """

    def visit(node: Any) -> Any:
        if isinstance(node, BindParameter):
            if node.index >= len(values):
                raise PlanError(
                    f"plan template references parameter ${node.index + 1} "
                    f"but only {len(values)} values were bound"
                )
            return Literal(values[node.index])
        return node

    return rewrite(plan, _PLAN, visit)


def collect_parameters(plan: LogicalOperator) -> list[BindParameter]:
    """Every ``BindParameter`` in the plan, in deterministic tree order."""
    found: list[BindParameter] = []

    def visit(node: Any) -> Any:
        if isinstance(node, BindParameter):
            found.append(node)
        return node

    rewrite(plan, _PLAN, visit)
    return found
