"""Per-query resource governance: budgets and cancellation.

The paper's §4.2 memory argument ranks plans by what they keep out of the
GApply partition buffer; this module is where that argument stops being a
counter and becomes policy. A :class:`Governor` is one query's resource
authority, threaded through :class:`~repro.execution.context.
ExecutionContext` (``ctx.governor``, ``None`` by default — plain execution
pays nothing):

* **wall-clock budget** (``timeout`` seconds) — checked on a stride of
  rows flowing through every operator (``tick``), so even a single
  pathological operator cannot run unbounded between checks;
* **memory budget** (``memory_cells`` — cells, i.e. rows x width, the
  same unit as ``Counters.buffered_cells``) — charged by buffering
  operators (sort, distinct, hash-join build). GApply's partition phase
  *spills to disk* under this budget instead of failing
  (:mod:`repro.storage.spill`); operators with no spill path raise
  :class:`~repro.errors.MemoryBudgetExceeded`;
* **output-row budget** (``max_rows``) — enforced at the plan root by
  :meth:`tick_output`;
* **cancellation** — :meth:`cancel` may be called from any thread; the
  running query observes it at the next stride check and raises
  :class:`~repro.errors.QueryCancelled`.

All violations raise *typed* errors from :mod:`repro.errors`, never bare
``RuntimeError``, and identically from batch nodes and row iterators.

The clock is injectable so tests can drive timeouts deterministically.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    MemoryBudgetExceeded,
    PlanError,
    QueryCancelled,
    RowBudgetExceeded,
    TimeoutExceeded,
)

#: Rows between wall-clock/cancellation checks. Small enough that a tight
#: per-row loop notices a timeout within microseconds of work; large
#: enough that the clock read disappears from profiles.
CHECK_STRIDE = 512


@dataclass(frozen=True)
class Budget:
    """Declarative per-query limits; ``None`` disables a dimension."""

    timeout: float | None = None        # wall-clock seconds
    memory_cells: int | None = None     # buffered cells (rows x width)
    max_rows: int | None = None         # output rows at the plan root

    def __post_init__(self) -> None:
        # PlanError to match how the other Database.sql knobs reject bad
        # values (see api._resolve_options) — and never a bare
        # ValueError, per the package-root-error contract.
        if self.timeout is not None and self.timeout <= 0:
            raise PlanError(f"timeout must be > 0, got {self.timeout}")
        if self.memory_cells is not None and self.memory_cells < 1:
            raise PlanError(
                f"memory_cells must be >= 1, got {self.memory_cells}"
            )
        if self.max_rows is not None and self.max_rows < 0:
            raise PlanError(f"max_rows must be >= 0, got {self.max_rows}")

    @property
    def unlimited(self) -> bool:
        return (
            self.timeout is None
            and self.memory_cells is None
            and self.max_rows is None
        )


class Governor:
    """One query's cancellation token and budget enforcer.

    Thread-safe where it must be: :meth:`cancel` uses an event, and the
    stride counter is per-call-site harmless under races (a lost tick
    delays a check by at most one stride). Cell accounting is guarded by
    a lock because the governor is shared across threads: a
    :class:`~repro.serve.Service` cancels, inspects and closes streams
    from threads other than the one executing the query.
    """

    def __init__(
        self,
        budget: Budget | None = None,
        clock: Callable[[], float] = time.monotonic,
        sql: str | None = None,
    ):
        self.budget = budget or Budget()
        self.clock = clock
        self.sql = sql
        self.started = clock()
        self.deadline = (
            None
            if self.budget.timeout is None
            else self.started + self.budget.timeout
        )
        self._cancelled = threading.Event()
        self._cancel_reason = "query cancelled"
        self._ticks = 0
        self._lock = threading.Lock()
        self.cells_in_use = 0
        self.peak_cells = 0
        self.output_rows = 0
        #: Bytes of published output (XML chunks) emitted under this
        #: governor; charged by the streaming publisher
        #: (:mod:`repro.xmlpub.stream`) per flushed chunk.
        self.emitted_bytes = 0
        #: Set by :meth:`mark_admitted` when a service admission queue sat
        #: between construction and execution; lets timeout errors split
        #: elapsed time into queued vs executing.
        self.admitted_at: float | None = None

    # ------------------------------------------------------------------
    # Cancellation and wall clock
    # ------------------------------------------------------------------

    def cancel(self, reason: str = "query cancelled") -> None:
        """Request cancellation; safe to call from any thread."""
        self._cancel_reason = reason
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def remaining_seconds(self) -> float | None:
        if self.deadline is None:
            return None
        return self.deadline - self.clock()

    def mark_admitted(self) -> None:
        """Record that queueing is over and execution starts now.

        Service queries construct their governor at *submission* so queue
        wait counts against the deadline; the admission controller stamps
        the transition when it grants the slot, so a later
        :class:`TimeoutExceeded` can report how much of the budget each
        phase consumed.
        """
        self.admitted_at = self.clock()

    def timeout_error(self, while_queued: bool = False) -> TimeoutExceeded:
        """Build the timeout error with the queued/executing breakdown."""
        now = self.clock()
        queued: float | None = None
        executing: float | None = None
        if while_queued:
            queued, executing = now - self.started, 0.0
        elif self.admitted_at is not None:
            queued = self.admitted_at - self.started
            executing = now - self.admitted_at
        message = f"query exceeded its {self.budget.timeout:g}s timeout"
        if while_queued:
            message += (
                f" after {queued:.3f}s in the admission queue, "
                "before executing at all"
            )
        elif queued is not None:
            message += (
                f" (queued {queued:.3f}s, executing {executing:.3f}s)"
            )
        error = TimeoutExceeded(message)
        error.queued_seconds = queued
        error.executing_seconds = executing
        error.add_context(sql=self.sql)
        return error

    def check(self) -> None:
        """Raise the typed error for any tripped wall-clock/cancel state."""
        if self._cancelled.is_set():
            raise QueryCancelled(self._cancel_reason).add_context(sql=self.sql)
        if self.deadline is not None and self.clock() > self.deadline:
            raise self.timeout_error()

    def tick(self, n: int = 1) -> None:
        """Stride-counted :meth:`check`; called per row by every operator."""
        self._ticks += n
        if self._ticks >= CHECK_STRIDE:
            self._ticks = 0
            self.check()

    # ------------------------------------------------------------------
    # Memory (cells) budget
    # ------------------------------------------------------------------

    def charge_cells(self, n: int) -> None:
        """Account ``n`` newly buffered cells; raise if over budget.

        A rejected charge is not recorded: callers with something to
        spill (GApply's partition phase) catch the error, free their
        resident buffer, and retry — the failed attempt must not linger
        in ``cells_in_use`` (the retry would double-charge) or in
        ``peak_cells`` (the peak would report a state that never held
        memory).
        """
        with self._lock:
            total = self.cells_in_use + n
            if (
                self.budget.memory_cells is not None
                and total > self.budget.memory_cells
            ):
                over = total
            else:
                self.cells_in_use = total
                if total > self.peak_cells:
                    self.peak_cells = total
                over = None
        if over is not None:
            raise MemoryBudgetExceeded(
                f"buffered {over} cells, over the "
                f"{self.budget.memory_cells}-cell memory budget"
            ).add_context(sql=self.sql)

    def release_cells(self, n: int) -> None:
        with self._lock:
            self.cells_in_use = max(0, self.cells_in_use - n)

    def spill_threshold(self) -> int | None:
        """The cell count at which spill-capable operators should start
        spilling: the memory budget, if one is set."""
        return self.budget.memory_cells

    def charge_emitted(self, n: int) -> None:
        """Account ``n`` bytes of published output leaving the system.

        Emitted bytes are *gone* — they do not stay buffered, so they are
        not held against the memory budget. Charging still runs a
        wall-clock/cancel check: a cancelled or expired publish stops at
        its next chunk even when the row stride has not tripped yet.
        """
        self.emitted_bytes += n
        self.check()

    # ------------------------------------------------------------------
    # Output-row budget (plan root only)
    # ------------------------------------------------------------------

    def tick_output(self, n: int = 1) -> None:
        self.output_rows += n
        if (
            self.budget.max_rows is not None
            and self.output_rows > self.budget.max_rows
        ):
            raise RowBudgetExceeded(
                f"query produced more than max_rows={self.budget.max_rows} "
                "output rows"
            ).add_context(sql=self.sql)
