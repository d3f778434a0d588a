"""Exception hierarchy for the repro engine.

Every error raised by the library derives from :class:`ReproError` so callers
can catch engine failures without also swallowing programming errors such as
``TypeError`` raised by their own code.

Errors carry *query context*: :meth:`ReproError.add_context` attaches the
SQL text (and, where known, the plan path of the failing operator) to an
in-flight error without clobbering context set closer to the failure
site. :meth:`Database.sql <repro.api.Database.sql>` attaches the query
text to every engine error that escapes it, so a caller catching
:class:`ReproError` can always recover which statement failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro engine.

    ``sql`` and ``plan_path`` are optional context attributes, attached
    via :meth:`add_context` by whichever layer knows them (the API facade
    knows the SQL text; operators know their plan path). First writer
    wins: context set nearest the failure is never overwritten.
    """

    sql: str | None = None
    plan_path: str | None = None

    def add_context(
        self, sql: str | None = None, plan_path: str | None = None
    ) -> "ReproError":
        if sql is not None and self.sql is None:
            self.sql = sql
        if plan_path is not None and self.plan_path is None:
            self.plan_path = plan_path
        return self


class SchemaError(ReproError):
    """A schema is malformed or a column reference cannot be resolved."""


class AmbiguousColumnError(SchemaError):
    """An unqualified column name matches more than one column."""

    def __init__(self, name: str, candidates: list[str]):
        self.name = name
        self.candidates = candidates
        super().__init__(
            f"column reference {name!r} is ambiguous; candidates: "
            + ", ".join(sorted(candidates))
        )


class UnknownColumnError(SchemaError):
    """A column reference does not match any column in scope."""

    def __init__(self, name: str, available: list[str] | None = None):
        self.name = name
        self.available = available or []
        message = f"unknown column {name!r}"
        if self.available:
            message += "; available: " + ", ".join(self.available)
        super().__init__(message)


class TypeCheckError(ReproError):
    """An expression or operator is applied to values of the wrong type."""


class CatalogError(ReproError):
    """A table or constraint is missing from, or conflicts with, the catalog."""


class ConstraintError(ReproError):
    """Data violates a declared key or foreign-key constraint."""


class SqlSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    known, so front ends can point at the error location.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class BindError(ReproError):
    """A parsed query failed semantic analysis (name resolution, typing)."""


class PlanError(ReproError):
    """A logical plan is malformed or cannot be lowered to a physical plan."""


class OptimizerError(ReproError):
    """The optimizer reached an inconsistent state while rewriting a plan."""


class ExecutionError(ReproError):
    """A runtime failure while executing a physical plan."""


class QueryCancelled(ExecutionError):
    """The query's cancellation token was triggered while it was running."""


class BudgetExceeded(ExecutionError):
    """A per-query resource budget was exhausted (see the subclasses)."""


class TimeoutExceeded(BudgetExceeded):
    """The query ran past its wall-clock budget (``timeout=`` seconds).

    When the query went through the admission queue of a
    :class:`~repro.serve.Service`, ``queued_seconds`` and
    ``executing_seconds`` break the elapsed time down so callers can tell
    an overloaded service (all queue wait) from a genuinely slow query.
    """

    queued_seconds: float | None = None
    executing_seconds: float | None = None


class MemoryBudgetExceeded(BudgetExceeded):
    """A buffering operator would exceed the query's cell budget
    (``memory_budget=``). GApply's partition phase, ORDER BY sorts and
    DISTINCT spill to disk instead of raising this; hash builds
    (joins, aggregates) cannot."""


class RowBudgetExceeded(BudgetExceeded):
    """The query produced more output rows than ``max_rows=`` allows."""


class SpillError(ExecutionError):
    """A spill run file could not be written or read back."""


class WalError(ReproError):
    """A write-ahead-log append, fsync, or checkpoint failed.

    Raised *before* the in-memory catalog mutation applies and after the
    partially written record has been truncated away, so a caller that
    catches it holds a store whose durable state still equals its
    acknowledged state exactly."""


class WalCorruptionError(WalError):
    """The write-ahead log or a checkpoint is damaged beyond a torn tail.

    A bad frame at the very end of the newest segment is a torn write and
    is silently truncated during recovery; a bad frame *followed by more
    log data*, a version gap in the replay sequence, or a checkpoint that
    fails its CRC means acknowledged history is unreadable — recovery
    refuses to guess and raises this instead."""


class PointInTimeUnavailable(WalError):
    """A ``recover_to=`` target is not a reachable committed state.

    Raised by point-in-time recovery when the requested version predates
    the oldest archived history, exceeds the newest committed version,
    or falls strictly inside a transaction (between its ``begin`` and
    ``commit`` records) — only committed-state boundaries are
    reconstructible. The message names the reachable range."""


class ServiceError(ReproError):
    """A failure in the concurrent query service layer (:mod:`repro.serve`)."""


class ServiceOverloaded(ServiceError):
    """The service shed this query: every concurrency slot is busy and the
    admission wait-queue is full.

    This is the *retryable* load-shedding signal: ``queue_depth`` reports
    how many queries were already waiting and ``suggested_backoff`` is the
    seconds a well-behaved client should sleep before retrying (scaled
    with queue pressure, deterministic so tests can assert on it).
    """

    retryable = True

    def __init__(
        self,
        message: str,
        queue_depth: int = 0,
        suggested_backoff: float = 0.0,
    ):
        self.queue_depth = queue_depth
        self.suggested_backoff = suggested_backoff
        super().__init__(message)


class ServiceStopped(ServiceError):
    """The service refused the request because it is draining or stopped.

    Not retryable against the same service instance — clients should fail
    over rather than back off.
    """

    retryable = False


class XmlPublishError(ReproError):
    """An XML view, XQuery expression, or tagging step is invalid."""
