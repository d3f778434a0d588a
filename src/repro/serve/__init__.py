"""The concurrent query service: admission control, snapshot reads, load
shedding, and graceful shutdown in front of a :class:`~repro.api.Database`.

The engine below this module executes one query at a time correctly and —
since the governor work — survives budget violations with typed errors.
This module makes the *system* robust when many clients hit one database
at once, following the admission-control discipline of production
federated engines (BigDAWG's shedding queues, Myria's service layering):

* **Sessions** (:class:`Session`) — a client handle carrying its query
  class, priority, and per-session accounting; all reads and writes flow
  through its owning :class:`Service`.
* **Admission control** (:class:`AdmissionController`) — a fixed number
  of concurrency *slots* plus a bounded **priority wait-queue**. A query
  that cannot get a slot waits in the queue (smaller priority value =
  admitted sooner, FIFO within a priority); when the queue is full the
  service **sheds load** with the typed, retryable
  :class:`~repro.errors.ServiceOverloaded` carrying the queue depth and a
  suggested backoff. Queue wait counts against the query's deadline: the
  governor's clock starts at submission, so a query admitted late can
  time out with a :class:`~repro.errors.TimeoutExceeded` whose context
  says how long it queued vs. executed.
* **Snapshot-isolated reads** — every admitted query pins an immutable
  :meth:`catalog snapshot <repro.storage.catalog.Catalog.snapshot>`
  before executing. Concurrent INSERT/DDL land atomically via
  copy-on-write table versions under the catalog's mutation lock;
  readers never block on writers and can never observe a torn row list
  or a half-applied batch.
* **Graceful lifecycle** — :meth:`Service.shutdown` stops admission
  (queued queries are rejected with :class:`~repro.errors.
  ServiceStopped`), drains in-flight queries for ``drain_timeout``
  seconds, then cancels stragglers through their governors' cancel
  events, and always returns a :class:`ShutdownReport`. Health and
  stats snapshots ride on :class:`~repro.observe.metrics.LockedCounters`.

Writes (``insert``/``create_table``/``drop_table``) intentionally bypass
the admission queue: they serialize on the catalog mutation lock, are
short (copy-on-write swap), and must stay live even when readers saturate
the slots — starving writers behind a full read queue would turn overload
into livelock.

Quickstart::

    from repro.serve import Service

    service = Service(db)                      # wraps an existing Database
    with service.session(client="web") as s:
        rows = s.sql("select count(*) from part").rows
        s.insert("part", [(99, "new part", "B", 1, 9.5)])
    report = service.shutdown(drain_timeout=5.0)

``python -m repro.serve --stress`` runs the seeded multi-client chaos
workload against a scratch service (see :mod:`repro.fuzz.chaos`).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.api import (
    Database,
    QueryResult,
    Transaction,
    _resolve_options,
    _RunOptions,
)
from repro.errors import (
    QueryCancelled,
    ReproError,
    ServiceError,
    ServiceOverloaded,
    ServiceStopped,
    WalError,
)
from repro.execution.governor import Budget, Governor
from repro.observe.metrics import LockedCounters
from repro.xmlpub.stream import DEFAULT_CHUNK_BYTES, XmlChunkStream
from repro.xmlpub.view import XmlView

#: How long a queued waiter sleeps between checks of its own deadline and
#: cancellation state. Admission handoffs set the waiter's event directly,
#: so this only bounds how late a *cancelled* waiter notices.
WAIT_QUANTUM = 0.05


@dataclass(frozen=True)
class QueryClass:
    """One admission class: its queue priority and default budgets.

    ``priority`` orders the wait-queue (smaller = sooner); ``budget``
    supplies the default governor limits for queries of this class that
    do not pass explicit ``timeout=``/``memory_budget=``/``max_rows=``.
    """

    name: str
    priority: int = 0
    budget: Budget = field(default_factory=Budget)


def default_query_classes() -> dict[str, QueryClass]:
    """The stock two-tier policy: interactive beats batch in the queue,
    batch gets the longer leash."""
    return {
        "interactive": QueryClass(
            "interactive", priority=0, budget=Budget(timeout=30.0)
        ),
        "batch": QueryClass(
            "batch", priority=10, budget=Budget(timeout=300.0)
        ),
    }


@dataclass
class ServiceConfig:
    """Service-wide admission and shedding policy."""

    #: Queries executing at once; everything else queues or sheds.
    max_concurrency: int = 4
    #: Bounded wait-queue depth; a submission past this is shed with
    #: :class:`~repro.errors.ServiceOverloaded`.
    max_queue_depth: int = 16
    #: Base of the suggested backoff carried by shed errors; scaled by
    #: queue pressure (deterministic, so clients and tests can rely on it).
    backoff_base: float = 0.05
    default_class: str = "interactive"
    classes: dict[str, QueryClass] = field(
        default_factory=default_query_classes
    )
    #: Open (or recover) a WAL-backed store at ``data_dir`` instead of a
    #: fresh in-memory database; see :mod:`repro.storage.wal`.
    durable: bool = False
    data_dir: str | None = None
    #: WAL fsync policy when durable: ``always`` / ``group`` / ``never``.
    #: ``group`` is the concurrent-writer policy: commits from different
    #: sessions batch into one fsync. Anything finer (segment size,
    #: archive mode, ...) is ``Service(database=Database.open(...))``.
    fsync: str = "always"

    def __post_init__(self) -> None:
        if self.max_concurrency < 1:
            raise ServiceError(
                f"max_concurrency must be >= 1, got {self.max_concurrency}"
            )
        if self.durable and not self.data_dir:
            raise ServiceError("durable=True requires data_dir")
        if self.max_queue_depth < 0:
            raise ServiceError(
                f"max_queue_depth must be >= 0, got {self.max_queue_depth}"
            )
        if self.default_class not in self.classes:
            raise ServiceError(
                f"default_class {self.default_class!r} is not a configured "
                f"class; have {sorted(self.classes)}"
            )

    def query_class(self, name: str | None) -> QueryClass:
        key = name or self.default_class
        try:
            return self.classes[key]
        except KeyError:
            raise ServiceError(
                f"unknown query class {key!r}; configured: "
                f"{sorted(self.classes)}"
            ) from None


class _Waiter:
    """One queued admission request; all fields mutate under the
    controller lock, and the event is the cross-thread wakeup."""

    __slots__ = ("event", "admitted", "abandoned")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.admitted = False
        self.abandoned = False


class AdmissionController:
    """Bounded concurrency slots with a bounded priority wait-queue.

    The invariant: at all times ``slots_in_use + slots_free ==
    max_concurrency``, and a slot freed by :meth:`release` is handed
    *directly* to the best queued waiter (priority, then FIFO) under the
    lock — there is no thundering herd and no window where a freed slot
    is visible to a fresh arrival while earlier waiters starve.
    """

    def __init__(
        self,
        slots: int,
        max_queue_depth: int,
        backoff_base: float = 0.05,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.slots = slots
        self.max_queue_depth = max_queue_depth
        self.backoff_base = backoff_base
        self.clock = clock
        self._lock = threading.Lock()
        self._slots_free = slots
        self._queue: list[tuple[int, int, _Waiter]] = []
        self._seq = itertools.count()
        self._stopping = False
        self.peak_queue_depth = 0
        self.sheds = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stopping(self) -> bool:
        return self._stopping

    def queue_depth(self) -> int:
        with self._lock:
            return sum(1 for _, _, w in self._queue if not w.abandoned)

    def slots_free(self) -> int:
        with self._lock:
            return self._slots_free

    # ------------------------------------------------------------------
    # The protocol
    # ------------------------------------------------------------------

    def acquire(
        self, priority: int, governor: Governor, sql: str | None = None
    ) -> None:
        """Block until a slot is owned; raise instead of waiting forever.

        Raises :class:`ServiceStopped` when the service is draining,
        :class:`ServiceOverloaded` when the wait-queue is full, and the
        governor's typed errors (``TimeoutExceeded`` with queued-time
        context, ``QueryCancelled``) when its deadline or cancel event
        trips while still queued.
        """
        with self._lock:
            if self._stopping:
                raise ServiceStopped(
                    "service is shutting down; not accepting queries"
                ).add_context(sql=sql)
            if self._slots_free > 0 and not self._pending_locked():
                self._slots_free -= 1
                return
            depth = self._pending_locked()
            if depth >= self.max_queue_depth:
                self.sheds += 1
                backoff = self.backoff_base * (
                    1.0 + depth / max(1, self.max_queue_depth)
                )
                raise ServiceOverloaded(
                    f"admission queue is full ({depth} queries waiting, "
                    f"all {self.slots} slots busy); retry in "
                    f"~{backoff:.3f}s",
                    queue_depth=depth,
                    suggested_backoff=backoff,
                ).add_context(sql=sql)
            waiter = _Waiter()
            heapq.heappush(self._queue, (priority, next(self._seq), waiter))
            depth += 1
            if depth > self.peak_queue_depth:
                self.peak_queue_depth = depth
        while True:
            remaining = governor.remaining_seconds()
            quantum = WAIT_QUANTUM
            if remaining is not None:
                quantum = min(quantum, max(0.0, remaining))
            waiter.event.wait(quantum)
            with self._lock:
                if waiter.admitted:
                    return  # the releaser handed us its slot
                if self._stopping:
                    waiter.abandoned = True
                    raise ServiceStopped(
                        "service began shutting down while this query was "
                        "queued for admission"
                    ).add_context(sql=sql)
                if governor.cancelled:
                    waiter.abandoned = True
            if governor.cancelled:
                governor.check()  # raises QueryCancelled with context
            remaining = governor.remaining_seconds()
            if remaining is not None and remaining <= 0:
                with self._lock:
                    if waiter.admitted:
                        # Handed a slot in the same instant the deadline
                        # expired: give it back, then report the timeout.
                        self._release_locked()
                    waiter.abandoned = True
                raise governor.timeout_error(while_queued=True)

    def release(self) -> None:
        """Return a slot; hands it straight to the best live waiter."""
        with self._lock:
            self._release_locked()

    def _release_locked(self) -> None:
        while self._queue:
            _, _, waiter = heapq.heappop(self._queue)
            if waiter.abandoned:
                continue
            waiter.admitted = True
            waiter.event.set()
            return
        self._slots_free += 1
        if self._slots_free > self.slots:  # pragma: no cover - invariant
            raise ServiceError(
                "admission slot over-release: more releases than acquires"
            )

    def _pending_locked(self) -> int:
        return sum(1 for _, _, w in self._queue if not w.abandoned)

    def stop(self) -> None:
        """Refuse new work and wake every queued waiter to reject it."""
        with self._lock:
            self._stopping = True
            for _, _, waiter in self._queue:
                waiter.event.set()


@dataclass
class ShutdownReport:
    """What :meth:`Service.shutdown` found and did."""

    #: Queries still executing when shutdown began.
    in_flight: int
    #: How many drained to completion inside ``drain_timeout``.
    drained: int
    #: How many had to be cancelled through their governors.
    cancelled: int
    #: Queries that still had not released their slot when the
    #: post-cancel grace expired (0 in every healthy run).
    leaked: int
    #: Wall-clock seconds shutdown took end to end.
    elapsed: float

    @property
    def clean(self) -> bool:
        return self.leaked == 0


class Session:
    """A client's handle on the service: defaults plus accounting.

    Sessions are cheap and thread-compatible (each carries no mutable
    query state beyond locked counters); closing one only refuses further
    use of *this handle* — the service keeps running.
    """

    def __init__(
        self,
        service: "Service",
        client: str = "anonymous",
        query_class: str | None = None,
        priority: int | None = None,
    ):
        self.service = service
        self.client = client
        self.query_class = query_class
        self.priority = priority
        self.queries = LockedCounters()
        self._closed = False

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceError(
                f"session for client {self.client!r} is closed"
            )

    def sql(self, text: str, **kwargs: Any) -> Any:
        self._check_open()
        kwargs.setdefault("query_class", self.query_class)
        kwargs.setdefault("priority", self.priority)
        try:
            result = self.service.sql(text, client=self.client, **kwargs)
        except ReproError:
            self.queries.inc("errors")
            raise
        self.queries.inc("queries")
        return result

    def publish(
        self, view: "XmlView", query: str, formulation: str = "gapply",
        **kwargs: Any,
    ) -> "XmlChunkStream":
        self._check_open()
        kwargs.setdefault("query_class", self.query_class)
        kwargs.setdefault("priority", self.priority)
        try:
            stream = self.service.submit_publish(
                view, query, formulation, client=self.client, **kwargs
            )
        except ReproError:
            self.queries.inc("errors")
            raise
        self.queries.inc("publishes")
        return stream

    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        self._check_open()
        count = self.service.insert(table_name, rows)
        self.queries.inc("writes")
        return count

    def create_table(self, *args: Any, **kwargs: Any):
        self._check_open()
        table = self.service.create_table(*args, **kwargs)
        self.queries.inc("ddl")
        return table

    def drop_table(self, name: str) -> None:
        self._check_open()
        self.service.drop_table(name)
        self.queries.inc("ddl")

    def begin(self) -> Transaction:
        """Open a multi-statement transaction (see :meth:`Service.begin`)."""
        self._check_open()
        txn = self.service.begin()
        self.queries.inc("transactions")
        return txn

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Service:
    """Thread-safe concurrent query service over one database.

    Any number of client threads may call :meth:`sql` and the write
    methods simultaneously; see the module docstring for the guarantees.
    """

    def __init__(
        self,
        database: Database | None = None,
        config: ServiceConfig | None = None,
    ):
        self.config = config or ServiceConfig()
        if self.config.durable:
            if database is not None:
                raise ServiceError(
                    "database= and config=ServiceConfig(durable=True, ...) "
                    "both name a store: pass the opened database alone, "
                    "or let the durable config open data_dir"
                )
            database = Database.open(
                self.config.data_dir, fsync=self.config.fsync
            )
        self.database = database or Database()
        self.admission = AdmissionController(
            self.config.max_concurrency,
            self.config.max_queue_depth,
            self.config.backoff_base,
        )
        self.stats_counters = LockedCounters()
        self._state_lock = threading.Lock()
        self._drained = threading.Condition(self._state_lock)
        self._active: dict[int, Governor] = {}
        #: In-flight publish streams, keyed like :attr:`_active`; shutdown
        #: force-closes these after the cancel grace, because a stream
        #: whose client simply stopped iterating never runs governor code.
        self._active_streams: dict[int, XmlChunkStream] = {}
        self._query_ids = itertools.count()
        self._stopping = False
        self._shutdown_report: ShutdownReport | None = None

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def session(
        self,
        client: str = "anonymous",
        query_class: str | None = None,
        priority: int | None = None,
    ) -> Session:
        self.config.query_class(query_class)  # validate early
        return Session(self, client, query_class, priority)

    # ------------------------------------------------------------------
    # Reads (admitted, snapshot-isolated)
    # ------------------------------------------------------------------

    def _admit(
        self,
        caller: str,
        entry: Callable[..., Any],
        text: str,
        submitted: str,
        query_class: str | None,
        priority: int | None,
        timeout: float | None,
        memory_budget: int | None,
        max_rows: int | None,
        raw_options: dict[str, Any],
    ) -> tuple[Database, int, _RunOptions]:
        """The prologue of every admitted read: class budget → governor →
        run options → admission slot → pinned snapshot → registration.

        The run options (those ``Database`` method ``entry`` takes, no
        others) are resolved *before* a slot is asked for, so a bad one
        raises, naming ``caller``, without touching queue or counters.
        Returns the snapshot reader, the query id to hand back to
        :meth:`_release`, and the options.
        """
        qclass = self.config.query_class(query_class)
        budget = Budget(
            timeout=timeout if timeout is not None else qclass.budget.timeout,
            memory_cells=(
                memory_budget
                if memory_budget is not None
                else qclass.budget.memory_cells
            ),
            max_rows=(
                max_rows if max_rows is not None else qclass.budget.max_rows
            ),
        )
        # The governor's clock starts now: queue wait counts against it.
        governor = Governor(budget, sql=text)
        options = _resolve_options(caller, entry, governor=governor, **raw_options)
        self.stats_counters.inc(submitted)
        try:
            self.admission.acquire(
                priority if priority is not None else qclass.priority,
                governor,
                sql=text,
            )
        except ServiceOverloaded:
            self.stats_counters.inc("shed")
            raise
        except ServiceStopped:
            self.stats_counters.inc("rejected_stopped")
            raise
        except ReproError:  # deadline/cancel tripped while queued
            self.stats_counters.inc("expired_queued")
            raise
        governor.mark_admitted()
        # The snapshot is pinned after admission: the query sees the
        # newest committed state at the moment it starts executing.
        reader = self.database.snapshot()
        query_id = next(self._query_ids)
        with self._state_lock:
            self._active[query_id] = governor
        return reader, query_id, options

    def _release(self, query_id: int) -> None:
        """Deregister an admitted read and give its slot back."""
        with self._drained:
            self._active.pop(query_id, None)
            self._active_streams.pop(query_id, None)
            self._drained.notify_all()
        self.admission.release()

    def sql(
        self,
        text: str,
        *,
        query_class: str | None = None,
        priority: int | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        max_rows: int | None = None,
        client: str = "anonymous",
        params: Sequence[Any] | None = None,
        **kwargs: Any,
    ) -> QueryResult | Any:
        """Admit, snapshot, and execute one query.

        The governor's clock starts *now*: time spent queued for
        admission counts against ``timeout`` (explicit, or the query
        class default). Extra keyword arguments are the options of
        :meth:`Database.sql <repro.api.Database.sql>` (``explain=``,
        ``planner_options=``, ...); an unknown or invalid
        one raises before a slot is taken.
        """
        reader, query_id, options = self._admit(
            "Service.sql", Database.sql, text, "submitted", query_class,
            priority, timeout, memory_budget, max_rows, kwargs,
        )
        try:
            result = reader._run_statement(text, params, options)
            self.stats_counters.inc("completed")
            return result
        except ReproError:
            self.stats_counters.inc("failed")
            raise
        finally:
            self._release(query_id)

    def submit_publish(
        self,
        view: XmlView,
        query: str,
        formulation: str = "gapply",
        *,
        query_class: str | None = None,
        priority: int | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        max_rows: int | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        encoding: str = "utf-8",
        client: str = "anonymous",
        **kwargs: Any,
    ) -> XmlChunkStream:
        """Admit, snapshot, and start streaming one published XML document.

        The streaming sibling of :meth:`sql`: same admission (query class,
        priority, shedding) and the same snapshot isolation, but the
        concurrency slot is held for the *lifetime of the returned
        stream*, not just this call — a client slowly iterating a
        multi-GB document occupies one slot the whole time, which is
        exactly the backpressure admission control exists to provide.
        The slot is returned when the stream is exhausted, closed, or
        killed by shutdown; abandoning the stream object entirely still
        releases on garbage collection, and :meth:`shutdown` force-closes
        whatever remains in flight.

        Budgets come from the query class unless overridden, and the
        governor's clock starts now — queue wait counts against
        ``timeout``, and mid-stream :meth:`Governor.cancel
        <repro.execution.governor.Governor.cancel>` (or shutdown) stops
        the stream within one chunk with :class:`~repro.errors.
        QueryCancelled`. Extra keyword arguments are the options of
        :meth:`Database.publish <repro.api.Database.publish>`
        (``planner_options=``, ``chunk_bytes=``, ...); an unknown or invalid
        one raises before a slot is taken.
        """
        reader, query_id, options = self._admit(
            "Service.submit_publish", Database.publish, query,
            "publish_submitted", query_class, priority, timeout,
            memory_budget, max_rows, kwargs,
        )
        try:
            stream = reader._publish(
                view, query, formulation, chunk_bytes, encoding, options
            )
        except ReproError:
            # Translation/bind/plan failed before any stream existed.
            self.stats_counters.inc("publish_failed")
            self._release(query_id)
            raise
        with self._state_lock:
            self._active_streams[query_id] = stream
        stream.on_close(self._publish_closed(query_id))
        return stream

    def _publish_closed(
        self, query_id: int
    ) -> Callable[[XmlChunkStream, BaseException | None], None]:
        """The close hook that gives a publish stream's slot back."""

        def hook(stream: XmlChunkStream, error: BaseException | None) -> None:
            self._release(query_id)
            stats = stream.stats
            self.stats_counters.add_many(
                published_bytes=stats.bytes_emitted,
                publish_chunks=stats.chunks,
            )
            self.stats_counters.max_of(
                "publish_peak_buffer_bytes", stats.peak_buffer_bytes
            )
            if error is None and stream.exhausted:
                self.stats_counters.inc("published_docs")
            elif error is None:
                # Closed (by the client or shutdown) before the document
                # finished — a deliberate abandon, not a failure.
                self.stats_counters.inc("publish_abandoned")
            elif isinstance(error, QueryCancelled):
                self.stats_counters.inc("publish_cancelled")
            else:
                self.stats_counters.inc("publish_failed")

        return hook

    # ------------------------------------------------------------------
    # Writes (serialized on the catalog mutation lock, copy-on-write)
    # ------------------------------------------------------------------

    def _check_accepting_writes(self, action: str) -> None:
        if self._stopping:
            raise ServiceStopped(
                f"service is shutting down; refusing {action}"
            )

    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Atomically insert a batch; admitted snapshots never see part
        of it."""
        self._check_accepting_writes(f"insert into {table_name!r}")
        count = self.database.catalog.insert_rows(table_name, rows)
        self.stats_counters.inc("writes")
        return count

    def create_table(self, *args: Any, **kwargs: Any):
        self._check_accepting_writes("create_table")
        table = self.database.create_table(*args, **kwargs)
        self.stats_counters.inc("ddl")
        return table

    def drop_table(self, name: str) -> None:
        self._check_accepting_writes(f"drop of {name!r}")
        self.database.catalog.drop(name)
        self.stats_counters.inc("ddl")

    def add_foreign_key(self, *args: Any, **kwargs: Any) -> None:
        self._check_accepting_writes("add_foreign_key")
        self.database.add_foreign_key(*args, **kwargs)
        self.stats_counters.inc("ddl")

    def begin(self) -> Transaction:
        """Open a multi-statement transaction on the shared database.

        Only one transaction is open at a time (the catalog's
        transaction gate serializes writers); the returned handle is a
        context manager that commits on clean exit and rolls back on
        exception. Under ``fsync="group"`` concurrent committers batch
        into shared fsyncs — see :class:`repro.api.Transaction`.
        """
        self._check_accepting_writes("begin transaction")
        txn = self.database.begin()
        self.stats_counters.inc("transactions")
        return txn

    # ------------------------------------------------------------------
    # Health and stats
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Point-in-time service counters plus derived gauges."""
        with self._state_lock:
            active = len(self._active)
            active_streams = len(self._active_streams)
        data = self.stats_counters.snapshot()
        data.update(
            active=active,
            active_streams=active_streams,
            queue_depth=self.admission.queue_depth(),
            peak_queue_depth=self.admission.peak_queue_depth,
            slots=self.admission.slots,
            slots_free=self.admission.slots_free(),
            catalog_version=self.database.catalog.version,
        )
        # The cache is shared between the live database and every pinned
        # snapshot (entries are keyed by catalog version), so one stats
        # block covers all reader snapshots.
        if self.database.plan_cache is not None:
            data["plan_cache"] = self.database.plan_cache.stats()
        # Durable stores surface their WAL counters alongside the
        # admission gauges: wal_appends, wal_bytes, fsyncs, checkpoints,
        # recoveries.
        if self.database.wal is not None:
            data.update(self.database.wal.stats())
        return data

    def health(self) -> dict[str, Any]:
        if self._shutdown_report is not None:
            status = "stopped"
        elif self._stopping:
            status = "draining"
        else:
            status = "ok"
        stats = self.stats()
        return {
            "status": status,
            "active": stats["active"],
            "queue_depth": stats["queue_depth"],
            "slots_free": stats["slots_free"],
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(
        self,
        drain_timeout: float | None = None,
        cancel_grace: float = 10.0,
    ) -> ShutdownReport:
        """Drain and stop; always returns, idempotently.

        Admission stops immediately (queued queries get
        :class:`ServiceStopped`). In-flight queries get ``drain_timeout``
        seconds to finish (``None`` = wait as long as they take); any
        stragglers are cancelled through their governors and given
        ``cancel_grace`` seconds to observe it at the next stride check.
        The report says how many drained, were cancelled, or — only if a
        query ignored cancellation beyond the grace — leaked.
        """
        with self._state_lock:
            if self._shutdown_report is not None:
                return self._shutdown_report
            self._stopping = True
            in_flight = len(self._active)
        started = time.monotonic()
        self.admission.stop()
        with self._drained:
            if drain_timeout is None:
                while self._active:
                    self._drained.wait()
            else:
                deadline = started + drain_timeout
                while self._active:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._drained.wait(remaining):
                        break
            stragglers = list(self._active.values())
        cancelled = len(stragglers)
        for governor in stragglers:
            governor.cancel("service shutting down")
            self.stats_counters.inc("cancelled_by_shutdown")
        with self._drained:
            grace_deadline = time.monotonic() + cancel_grace
            while self._active:
                remaining = grace_deadline - time.monotonic()
                if remaining <= 0 or not self._drained.wait(remaining):
                    break
            # Publish streams whose clients simply stopped iterating never
            # execute governor checks, so cancellation alone cannot drain
            # them; force-close outside the lock (close hooks reacquire it).
            streams = list(self._active_streams.values())
        for stream in streams:
            stream.close()
        with self._drained:
            leaked = len(self._active)
        report = ShutdownReport(
            in_flight=in_flight,
            drained=in_flight - cancelled,
            cancelled=cancelled,
            leaked=leaked,
            elapsed=time.monotonic() - started,
        )
        if self.database.wal is not None:
            # Compact the log so the next open replays from a checkpoint;
            # recovery never *needs* this — a failed checkpoint just
            # leaves the longer (still complete) log behind.
            try:
                self.database.checkpoint()
            except WalError:
                pass
            self.database.close()
        with self._state_lock:
            self._shutdown_report = report
        return report

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


__all__ = [
    "AdmissionController",
    "Budget",
    "QueryClass",
    "Service",
    "ServiceConfig",
    "Session",
    "ShutdownReport",
    "Transaction",
    "default_query_classes",
]
