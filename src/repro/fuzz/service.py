"""The service contract of :mod:`repro.serve` as one model (DESIGN
§11.4), and the seeded ``serve-stress`` profile that drives it.

:class:`ServiceModel` is the service as plain data. The Hypothesis
machine in ``tests/properties/test_service_model.py`` calls :func:`step`
once per rule on a :class:`Rig` (a live service on a fake clock) and
holds every outcome and ``stats()`` to the model exactly; the sweep's
client threads draw their actions from :data:`KINDS` on the real clock.
Both end with :meth:`ServiceModel.reconcile`.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import cache
from typing import Any

from repro.api import Database
from repro.errors import (MemoryBudgetExceeded, QueryCancelled, ReproError, ServiceOverloaded,
                          ServiceStopped, SpillError, TimeoutExceeded)
from repro.execution.faults import FaultPlan, fault_injection
from repro.fuzz.chaos import _BOUND_PLAN
from repro.fuzz.driver import Failure, Profile
from repro.serve import AdmissionController, QueryClass, Service, ServiceConfig
from repro.storage.spill import live_spill_files
from repro.storage.types import DataType
from repro.xmlpub import tpch_supplier_view
from repro.xmlpub.stream import XmlChunkStream

#: How a submission ends; a publish ends with its stream.
ENDINGS = ("completed", "shed", "timed_out", "cancelled", "stopped", "failed")
#: The client actions both drivers draw: a read, a publish, a ledger write.
KINDS = ("sql", "publish", "insert")
#: The model events a driver should reach.
EVENTS = ("hand-off", "shed", "queued-timeout", "queued-cancel", "stopped-queued",
          "shutdown-cancel", "stream-force-close")
#: Rows per ledger write; each batch sums to zero, so a torn read shows.
LEDGER_BATCH = 4
#: The reads, tagged by ``n`` (every ``l_batch`` is >= 0, so the tag
#: filters nothing) so each read's SQL names it.
READS = {
    "sum": "select sum(l_amount) from ledger where l_batch > -{n}",
    "count": "select count(*) from ledger where l_batch > -{n}",
    "gapply": "select gapply(select sum(l_amount) from g) as (total) "
              "from ledger where l_batch > -{n} group by l_batch : g",
    "missing": "select count(*) from missing where x > -{n}",  # fails once admitted
}
view = cache(tpch_supplier_view)  # built on first use
PUBLISH_QUERY = (
    "for $s in /doc(tpch.xml)/suppliers/supplier return <ret> $s/s_suppkey, "
    "<parts> for $p in $s/part return <part> $p/p_name, $p/p_retailprice "
    "</part> </parts>, avg($s/part/p_retailprice) </ret>"
)
#: A publish that fails once admitted: the view has no such path.
BAD_QUERY = "for $s in /doc(x)/wrong/path return $s"
#: Seconds a driver waits for a client thread before calling it a hang,
#: and for the service to reach the model's state.
JOIN_TIMEOUT, SETTLE = 60.0, 5.0
_INT, _STR = DataType.INTEGER, DataType.STRING


def ledger_batch(batch_id: int, rng: random.Random) -> list[tuple]:
    a, b = rng.randrange(1, 1000), rng.randrange(1, 1000)
    return [(batch_id, 0, a), (batch_id, 1, -a), (batch_id, 2, b), (batch_id, 3, -b)]


def ledger_database(seed: int) -> Database:
    """Six seeded ledger batches beside the supplier view's tables."""
    rng = random.Random(seed ^ 0x1ED6E2)
    db = Database()
    db.create_table(
        "ledger", [("l_batch", _INT), ("l_entry", _INT), ("l_amount", _INT)],
        [row for batch_id in range(6) for row in ledger_batch(batch_id, rng)],
    )
    db.create_table(
        "part", [("p_partkey", _INT), ("p_name", _STR), ("p_retailprice", DataType.FLOAT)],
        [(i, f"part{i}", float(i * 10)) for i in range(1, 13)], primary_key=["p_partkey"],
    )
    db.create_table("partsupp", [("ps_suppkey", _INT), ("ps_partkey", _INT)],
                    [(100 + (i % 3), i) for i in range(1, 13)])
    db.create_table("supplier", [("s_suppkey", _INT), ("s_name", _STR)],
                    [(100 + i, f"supp{i}") for i in range(3)], primary_key=["s_suppkey"])
    return db


def document(db: Database) -> bytes:
    """The document every publish of :data:`PUBLISH_QUERY` must return,
    from an uncached twin so ``db``'s plan cache stays untouched."""
    return Database(db.catalog, plan_cache=None).publish(view(), PUBLISH_QUERY).read_all()


def read_problem(op: str, rows: list[tuple]) -> str | None:
    """The model's check on a read's rows: the ledger is zero-sum."""
    value = rows[0][0] or 0
    if op == "sum" and value != 0 or op == "count" and value % LEDGER_BATCH:
        return f"torn read: {op} is {value}"
    bad = [row for row in rows if op == "gapply" and (row[-1] or 0) != 0]
    return f"torn read: nonzero per-batch sums {bad[:3]}" if bad else None


@dataclass
class Outcome:
    """How one submission ended, as its client saw it."""

    kind: str
    ending: str | None = None
    error: ReproError | None = None
    #: A wrong answer: a torn read or another document.
    problem: str | None = None
    #: A publish's stream, from admission until :func:`finish` reads it.
    stream: XmlChunkStream | None = None

    def end(self, error: ReproError) -> None:
        self.error = error
        self.ending = {ServiceOverloaded: "shed", ServiceStopped: "stopped",
                       TimeoutExceeded: "timed_out", QueryCancelled: "cancelled",
                       }.get(type(error), "failed")


def submit(service: Service, action: tuple) -> Outcome:
    """Submit ``("sql", op, n, query_class, timeout, memory_budget)`` or
    ``("publish", query_class, timeout, bad)``; a publish that got a slot
    comes back pending, with its stream for :func:`finish`."""
    kind, *args = action
    outcome = Outcome(kind)
    try:
        if kind == "publish":
            outcome.stream = service.submit_publish(
                view(), BAD_QUERY if args[2] else PUBLISH_QUERY,
                query_class=args[0], timeout=args[1],
            )
            return outcome
        op, n, qclass, timeout, memory_budget = args
        options: dict[str, Any] = {"query_class": qclass, "timeout": timeout}
        if op == "gapply":  # un-rewritten, so a budget reaches its partitions
            options.update(planner_options=_BOUND_PLAN, memory_budget=memory_budget)
        rows = service.sql(READS[op].format(n=n), **options).rows
    except ReproError as error:
        outcome.end(error)
        return outcome
    outcome.ending, outcome.problem = "completed", read_problem(op, rows)
    return outcome


def finish(outcome: Outcome, document: bytes) -> None:
    """Read a pending publish's stream to its end (or find it closed)."""
    stream, outcome.stream = outcome.stream, None
    try:
        body = stream.read_all()
    except ReproError as error:
        return outcome.end(error)
    outcome.ending = "completed" if stream.exhausted else "cancelled"
    if stream.exhausted and body != document:
        outcome.problem = f"publish returned another document ({len(body)} bytes)"


def insert(service: Service, batch_id: int, seed: int) -> bool:
    """Write one zero-sum ledger batch; False when the service refused."""
    try:
        service.insert("ledger", ledger_batch(batch_id, random.Random(seed)))
    except ServiceStopped:
        return False
    return True


@dataclass(eq=False)
class Expected:
    """One submission as the model sees it. A ``gated`` read holds its
    slot between grant and execution until released; a ``fails`` one (a
    missing table, a bad publish) fails once admitted. ``text`` is its
    SQL or XQuery; ``state`` is ``queued``, ``held`` or the ending;
    ``detail`` the depth a shed saw or the seconds a lapse queued."""

    kind: str
    priority: int
    deadline: float | None
    gated: bool
    fails: bool
    submitted: float
    text: str
    state: str = "new"
    detail: float | None = None


class Divergence(AssertionError):
    """The service left the model."""


class ServiceModel:
    """Free slots, the (priority, seq) queue, each submission's state,
    and what ``stats()`` must show. A read admitted ungated ends at once
    (completed or failed) and frees its slot; a gated read or a publish
    holds it until released, and a freed slot goes to the best waiter.
    A waiter lapses when the clock reaches its deadline."""

    def __init__(self, config: ServiceConfig) -> None:
        self.slots, self.max_queue_depth = config.max_concurrency, config.max_queue_depth
        self.backoff_base = config.backoff_base
        self.now, self.free, self.peak, self.stopped = 0.0, self.slots, 0, False
        self.queue: list[tuple[int, int]] = []  # (priority, index into calls)
        self.calls: list[Expected] = []
        self.counts: Counter = Counter()
        #: What shutdown must report: (in_flight, drained, cancelled, leaked).
        self.report: tuple[int, int, int, int] | None = None
        #: The action kinds and :data:`EVENTS` seen, for coverage.
        self.seen: Counter = Counter()

    def submit(self, call: Expected) -> None:
        self.calls.append(call)
        self.counts["submitted" if call.kind == "sql" else "publish_submitted"] += 1
        if self.stopped:
            self._end(call, "stopped")
        elif self.free and not self.queue:
            self.free -= 1
            self._admit(call)
        elif len(self.queue) >= self.max_queue_depth:
            call.detail = len(self.queue)
            self._end(call, "shed", event="shed")
        else:
            call.state = "queued"
            heapq.heappush(self.queue, (call.priority, len(self.calls) - 1))
            self.peak = max(self.peak, len(self.queue))

    def release(self, call: Expected, how: str = "read") -> None:
        """A holder finishes: its gate opens, or its client reads the
        stream, closes it unread (``abandon``) or cancels it first."""
        late = call.deadline is not None and self.now > call.deadline
        if call.fails:
            self._end(call, "failed", "failed" if call.kind == "sql" else "publish_failed")
        elif call.kind == "publish" and how != "read":
            self._end(call, "cancelled", {"abandon": "publish_abandoned",
                                          "cancel": "publish_cancelled"}[how])
        else:
            self._end(call, "timed_out" if late else "completed")
        if self.queue:
            self.seen["hand-off"] += 1
            self._admit(self.calls[heapq.heappop(self.queue)[1]])
        else:
            self.free += 1

    def advance(self, seconds: float) -> None:
        self.now += seconds
        for call in self.waiting():
            if call.deadline is not None and call.deadline <= self.now:
                self.lapse(call, "timed_out", "queued-timeout")

    def lapse(self, call: Expected, ending: str, event: str) -> None:
        """A waiter leaves the queue: deadline, cancel or shutdown."""
        self.queue.remove((call.priority, self.calls.index(call)))
        heapq.heapify(self.queue)
        call.detail = self.now - call.submitted
        self._end(call, ending, event=event)

    def shutdown(self, drain: bool) -> None:
        """Stop admission; with ``drain`` every holder's client finishes
        it during the drain, else each is cancelled (streams force-closed)."""
        if self.stopped:
            return
        self.stopped = True
        for call in self.waiting():
            self.lapse(call, "stopped", "stopped-queued")
        holders = self.holders()
        for call in holders:
            if drain:
                self.release(call)
                continue
            self._end(call, "cancelled", "publish_abandoned", "shutdown-cancel")
            self.free += 1
            self.counts["cancelled_by_shutdown"] += 1
            if call.kind == "publish":
                self.seen["stream-force-close"] += 1
        n = len(holders)
        self.report = (n, n, 0, 0) if drain else (n, 0, n, 0)

    def _admit(self, call: Expected) -> None:
        call.state = "held"
        if not call.gated and (call.fails or call.kind == "sql"):
            self.release(call)

    def _end(self, call: Expected, ending: str, key: str | None = None,
             event: str | None = None) -> None:
        """End ``call``, counting it under ``key`` (by default, what its
        ending and where it ended from give)."""
        was, call.state = call.state, ending
        if event:
            self.seen[event] += 1
        if key is None and ending in ("shed", "stopped"):
            key = "shed" if ending == "shed" else "rejected_stopped"
        elif key is None and was == "queued":
            key = "expired_queued"
        elif key is None:
            key = "completed" if call.kind == "sql" else (
                "published_docs" if ending == "completed" else "publish_failed")
        self.counts[key] += 1

    def waiting(self) -> list[Expected]:
        return [self.calls[index] for _, index in sorted(self.queue)]

    def holders(self) -> list[Expected]:
        return [call for call in self.calls if call.state == "held"]

    def stats(self) -> dict[str, int]:
        """What ``Service.stats()`` must report, key by key."""
        holders = self.holders()
        return {**self.counts, "active": len(holders), "queue_depth": len(self.queue),
                "active_streams": sum(call.kind == "publish" for call in holders),
                "peak_queue_depth": self.peak, "slots_free": self.free}

    def bounds(self, stats: dict[str, Any]) -> str | None:
        """Reads executing never exceed the slots, nor the queue its bound."""
        if stats["active"] > self.slots or stats["queue_depth"] > self.max_queue_depth:
            return f"over a bound: {stats}"
        return None

    def reconcile(self, stats: dict[str, Any], report: Any, outcomes: list[Outcome]) -> str | None:
        """After shutdown: every read right, every submission ended once
        and counted so by ``stats()``, nothing admitted or queued, every
        slot free, and a report that adds up. None when all of it holds."""
        wrong = [outcome.problem for outcome in outcomes if outcome.problem]
        if wrong:
            return wrong[0]
        ended = Counter(outcome.ending for outcome in outcomes)
        kinds = Counter(outcome.kind for outcome in outcomes)
        got = Counter({key: value for key, value in stats.items() if isinstance(value, int)})
        for want, have in (
            (0, ended[None]),
            (kinds["sql"], got["submitted"]),
            (kinds["publish"], got["publish_submitted"]),
            (ended["completed"], got["completed"] + got["published_docs"]),
            (ended["shed"], got["shed"]),
            (ended["stopped"], got["rejected_stopped"]),
            (ended["timed_out"] + ended["cancelled"] + ended["failed"],
             got["expired_queued"] + got["failed"] + got["publish_failed"]
             + got["publish_cancelled"] + got["publish_abandoned"]),
            (0, got["active"] + got["active_streams"] + got["queue_depth"]),
            (got["slots"], got["slots_free"]),
            (report.in_flight, report.drained + report.cancelled + report.leaked),
            (0, report.leaked),
            (report.cancelled + report.leaked, got["cancelled_by_shutdown"]),
            (True, got["peak_queue_depth"] <= self.max_queue_depth),
        ):
            if want != have:
                return f"does not reconcile ({want} != {have}): {dict(ended)}, {stats}, {report}"
        return None

    def observe(self, outcome: Outcome) -> None:
        """Tally the events a client can see for itself."""
        error, ending = outcome.error, outcome.ending
        self.seen.update(event for event, seen in (
            ("shed", ending == "shed"),
            ("queued-timeout", ending == "timed_out" and error.executing_seconds == 0.0),
            ("stopped-queued", ending == "stopped" and "queued" in str(error)),
            ("stream-force-close", outcome.kind == "publish" and ending == "cancelled"
             and error is None),
        ) if seen)


#: The machine's classes: the stock priorities, no default deadline; and
#: its service: two slots and a queue of two.
CLASSES = {"interactive": QueryClass("interactive", 0), "batch": QueryClass("batch", 10)}
CONFIG = ServiceConfig(max_concurrency=2, max_queue_depth=2, classes=CLASSES)


@dataclass
class _Client:
    outcome: Outcome
    gate: threading.Event | None
    entered: threading.Event = field(default_factory=threading.Event)
    thread: threading.Thread | None = None


class Rig:
    """A live service on a fake clock, and one client thread per
    submission, index-aligned with :attr:`ServiceModel.calls`. A gated
    read stops in ``Database.snapshot`` — granted, not yet executing —
    until released."""

    def __init__(self, config: ServiceConfig) -> None:
        self.now = 0.0
        db = ledger_database(0)
        self.document = document(db)
        self.service = Service(db, config)
        self.service.admission = AdmissionController(
            config.max_concurrency, config.max_queue_depth, config.backoff_base,
            clock=lambda: self.now,
        )
        self.clients: list[_Client] = []
        self.report = None
        self.spill_files = live_spill_files()
        local, pin = threading.local(), db.snapshot

        def gated_snapshot() -> Database:
            client = getattr(local, "client", None)
            if client is not None and client.gate is not None:
                client.entered.set()
                client.gate.wait(JOIN_TIMEOUT)
            return pin()

        def run(client: _Client, action: tuple) -> None:
            local.client = client
            client.outcome = submit(self.service, action)

        db.snapshot = gated_snapshot
        self._run = run

    def start(self, action: tuple, gated: bool) -> None:
        client = _Client(Outcome(action[0]), threading.Event() if gated else None)
        client.thread = threading.Thread(target=self._run, args=(client, action), daemon=True)
        self.clients.append(client)
        client.thread.start()

    def release(self, index: int, how: str = "read") -> None:
        client = self.clients[index]
        if client.gate is not None:
            return client.gate.set()
        if how == "abandon":
            client.outcome.stream.close()
        elif how == "cancel":
            client.outcome.stream.governor.cancel()
        finish(client.outcome, self.document)

    def close(self) -> None:
        self.service.shutdown(drain_timeout=0, cancel_grace=0)
        for client in self.clients:
            if client.gate is not None:
                client.gate.set()
            client.thread.join(JOIN_TIMEOUT)


def _until(condition, what: str) -> None:
    deadline = time.monotonic() + SETTLE
    while not condition():
        if time.monotonic() > deadline:
            raise Divergence(f"timed out waiting for {what}")
        time.sleep(0.001)


def step(rig: Rig, model: ServiceModel, action: tuple) -> None:
    """Run ``action`` on ``rig`` and ``model``; then every client must
    reach its model state and ending, and ``stats()`` be the model's, or
    :class:`Divergence` is raised. Actions: ``("sql", op, query_class,
    timeout, gated)``, ``("publish", query_class, timeout, bad)``,
    ``("insert",)``, ``("release", pick, how)``, ``("advance", seconds)``,
    ``("cancel", pick)`` (a queued read) and ``("shutdown", drain)``."""
    kind, *args = action
    model.seen[kind] += 1
    if kind == "sql":
        op, qclass, timeout, gated = args
        fails, submission = op == "missing", ("sql", op, len(model.calls), qclass, timeout, None)
        text = READS[op].format(n=len(model.calls))
    elif kind == "publish":
        (qclass, timeout, fails), gated, submission = args, False, action
        text = BAD_QUERY if fails else PUBLISH_QUERY
    if kind in ("sql", "publish"):
        rig.start(submission, gated)
        deadline = None if timeout is None else model.now + timeout
        model.submit(Expected(kind, CLASSES[qclass].priority, deadline, gated, fails, model.now,
                              text))
    elif kind == "insert":
        if insert(rig.service, 1000, model.counts["writes"]) == model.stopped:
            raise Divergence(f"insert landed: {not model.stopped}, stopped: {model.stopped}")
        model.counts["writes"] += not model.stopped
    elif kind == "release":
        holders = model.holders()
        call = holders[args[0] % len(holders)]
        model.release(call, args[1])
        rig.release(model.calls.index(call), args[1])
    elif kind == "advance":
        rig.now += args[0]
        model.advance(args[0])
    elif kind == "cancel":
        waiting = [call for call in model.waiting() if call.kind == "sql"]
        call = waiting[args[0] % len(waiting)]
        with rig.service._state_lock:  # a queued read is in flight already
            governors = [governor for governor, _ in rig.service._inflight.values()]
        for governor in governors:
            if governor.sql == call.text:
                governor.cancel("client gave up")
        model.lapse(call, "cancelled", "queued-cancel")
    elif kind == "shutdown":
        _shutdown(rig, model, args[0])
    _settle(rig, model)


def conclude(rig: Rig, model: ServiceModel) -> None:
    """Shut down — draining while a gated read holds a slot, since it
    ignores cancellation — :meth:`~ServiceModel.reconcile`, and find no
    spill file left by a stream however it ended."""
    step(rig, model, ("shutdown", any(call.gated for call in model.holders())))
    outcomes = [client.outcome for client in rig.clients]
    leaked = live_spill_files() - rig.spill_files
    problem = model.reconcile(rig.service.stats(), rig.report, outcomes) or (
        leaked and f"leaked spill files: {sorted(leaked)[:3]}")
    if problem:
        raise Divergence(problem)


def play(actions: list[tuple], config: ServiceConfig = CONFIG) -> ServiceModel:
    """Run ``actions`` through :func:`step` on a fresh :class:`Rig` and
    :func:`conclude`; returns the model, for what it saw."""
    rig, model = Rig(config), ServiceModel(config)
    try:
        for action in actions:
            step(rig, model, action)
        conclude(rig, model)
    finally:
        rig.close()
    return model


def _shutdown(rig: Rig, model: ServiceModel, drain: bool) -> None:
    if not drain and any(call.gated for call in model.holders()):
        raise ValueError("a gated read ignores cancellation: release it or drain")
    holders = [model.calls.index(call) for call in model.holders()]
    again = model.stopped
    model.shutdown(drain)
    if again:
        report = rig.service.shutdown()
        if report is not rig.report:
            raise Divergence("a second shutdown returned another report")
    elif not drain:
        rig.report = rig.service.shutdown(drain_timeout=0, cancel_grace=0)
        for index in holders:
            rig.release(index)  # the client finds its stream closed
    else:
        done: list = []
        stopper = threading.Thread(target=lambda: done.append(rig.service.shutdown(cancel_grace=0)))
        stopper.start()
        _until(lambda: rig.service.admission.stopping, "shutdown to stop admission")
        for index in holders:
            rig.release(index)  # the clients finish during the drain
        stopper.join(SETTLE)
        rig.report = done[0] if done else None
    report = rig.report
    got = report and (report.in_flight, report.drained, report.cancelled, report.leaked)
    if got != model.report or rig.service.health()["status"] != "stopped":
        raise Divergence(f"shutdown report {got}, model {model.report}")


def _settle(rig: Rig, model: ServiceModel) -> None:
    """Wait until each client is where the model says, then compare."""
    for client, call in zip(rig.clients, model.calls):
        if call.state == "held" and call.gated:
            _until(client.entered.is_set, "a gated read to reach its snapshot")
        elif call.state != "queued":
            client.thread.join(SETTLE)
            if client.thread.is_alive():
                raise Divergence(f"expected {call.state}, the call is still pending")
    _until(lambda: rig.service.admission.queue_depth() == len(model.queue),
           f"the queue to hold {len(model.queue)}")
    for index, (client, call) in enumerate(zip(rig.clients, model.calls)):
        outcome, error = client.outcome, client.outcome.error
        want = call.state if call.state in ENDINGS else None
        backoff = model.backoff_base * (1 + (call.detail or 0) / max(1, model.max_queue_depth))
        if outcome.ending != want or outcome.problem:
            raise Divergence(f"call {index}: expected {want}, got {outcome}")
        if want == "shed" and not (error.retryable and error.queue_depth == call.detail
                                   and error.suggested_backoff == backoff
                                   and error.sql == call.text):
            raise Divergence(f"call {index}: shed with {error!r}")
        queued = f"after {call.detail or 0:.3f}s in the admission queue, before executing at all"
        if call.detail is not None and want == "timed_out" and (
                (error.queued_seconds, error.executing_seconds) != (call.detail, 0.0)
                or queued not in str(error)):
            raise Divergence(f"call {index}: lapsed with {error}")
        if call.detail is not None and want == "cancelled" and "client gave up" not in str(error):
            raise Divergence(f"call {index}: cancelled with {error}")
    stats = rig.service.stats()
    wrong = {key: (stats.get(key, 0), value) for key, value in model.stats().items()
             if stats.get(key, 0) != value}
    if wrong or rig.service.admission.sheds != model.counts["shed"]:
        raise Divergence(f"stats (service, model): {wrong}, controller sheds "
                         f"{rig.service.admission.sheds}")


SCENARIOS = ("steady", "overload", "spill-pressure", "faulted-spill", "shutdown-mid-run",
             "deadline")


@dataclass
class StressCase:
    """One seed's concurrent workload shape (deterministic replay)."""

    seed: int
    scenario: str
    threads: int
    ops_per_thread: int
    max_concurrency: int
    max_queue_depth: int
    fault: FaultPlan | None = None
    gapply_memory_budget: int | None = None
    shutdown_after: float | None = None
    #: The timeout of every read and publish.
    timeout: float = 30.0

    def describe(self) -> dict[str, Any]:
        return asdict(self)


def build_stress_case(seed: int, threads: int = 8, ops_per_thread: int = 4) -> StressCase:
    """Deterministically derive one stress case from its seed."""
    rng = random.Random(seed ^ 0xC0C0)
    scenario = SCENARIOS[seed % len(SCENARIOS)]
    case = StressCase(seed, scenario, threads, ops_per_thread,
                      rng.randrange(2, 5), rng.randrange(8, 17))
    if scenario == "overload":
        case.max_concurrency, case.max_queue_depth = 1, rng.randrange(0, 3)
    elif scenario == "deadline":  # waiters lapse in a queue behind one slot
        case.max_concurrency, case.timeout = 1, rng.choice((0.002, 0.005))
    elif scenario in ("spill-pressure", "faulted-spill"):
        case.gapply_memory_budget = rng.choice((64, 128))
        if scenario == "faulted-spill":
            case.fault = FaultPlan(seed=seed, fail_spill_at=rng.randrange(32))
    elif scenario == "shutdown-mid-run":
        case.shutdown_after = rng.uniform(0.01, 0.1)
    return case


def _draw(rng: random.Random, case: StressCase) -> tuple:
    kind = rng.choices(KINDS, (60, 10, 30))[0]
    qclass = "batch" if rng.random() < 0.3 else "interactive"
    if kind == "sql":
        op = rng.choice(("sum", "count", "gapply", "gapply"))
        return ("sql", op, rng.randrange(100), qclass, case.timeout, case.gapply_memory_budget)
    if kind == "publish":
        return ("publish", qclass, case.timeout, False)
    return ("insert", rng.randrange(1000, 1 << 30), rng.randrange(1 << 30))


def _unexpected(case: StressCase, outcome: Outcome) -> str | None:
    """Only shutdown stops and cancels, only short deadlines time out, and
    only a spill fault or a memory budget fails a read."""
    failed = (SpillError,) * bool(case.fault) + (MemoryBudgetExceeded,) * bool(
        case.gapply_memory_budget)
    stopping = case.shutdown_after is not None
    if {"completed": True, "shed": True, "stopped": stopping, "cancelled": stopping,
            "timed_out": case.scenario == "deadline",
            "failed": isinstance(outcome.error, failed)}[outcome.ending]:
        return None
    return f"unexpected {outcome.ending} ending: {outcome.error!r}"


def run_stress_case(case: StressCase, tally: Counter) -> str | None:
    """Run one stress case; None when the contract held."""
    db = ledger_database(case.seed)
    expected = document(db)
    if case.shutdown_after is not None:
        # Slow pins keep reads between grant and execution, the window
        # shutdown must still see.
        pin = db.snapshot
        db.snapshot = lambda: (time.sleep(0.005), pin())[1]
    config = ServiceConfig(max_concurrency=case.max_concurrency,
                           max_queue_depth=case.max_queue_depth)
    service, model = Service(db, config), ServiceModel(config)
    outcomes: list[Outcome] = []
    failures: list[str] = []
    landed = [0] * case.threads

    def client(tid: int) -> None:
        rng = random.Random((case.seed << 8) ^ tid)
        try:
            for _ in range(case.ops_per_thread):
                action = _draw(rng, case)
                if action[0] == "insert":
                    landed[tid] += insert(service, *action[1:])
                    continue
                outcome = submit(service, action)
                if outcome.stream is not None:
                    finish(outcome, expected)
                outcomes.append(outcome)
                problem = _unexpected(case, outcome) or model.bounds(service.stats())
                if problem:
                    failures.append(f"thread {tid}: {problem}")
        except Exception as error:  # noqa: BLE001 - the invariant
            failures.append(f"thread {tid}: untyped {type(error).__name__}: {error}")

    spill_files_before = live_spill_files()
    workers = [threading.Thread(target=client, args=(tid,), name=f"stress-client-{tid}")
               for tid in range(case.threads)]
    with fault_injection(case.fault or FaultPlan()):
        for worker in workers:
            worker.start()
        if case.shutdown_after is not None:
            time.sleep(case.shutdown_after)
            service.shutdown(drain_timeout=1.0)
            stats = service.stats()
            if stats["active"] or stats["slots_free"] != stats["slots"]:
                failures.append(f"a read holds a slot after shutdown returned: {stats}")
        for worker in workers:
            worker.join(JOIN_TIMEOUT)
            if worker.is_alive():
                failures.append(f"hang: {worker.name} still running")
    if failures:
        return "; ".join(failures[:3])
    report = service.shutdown(drain_timeout=5.0)
    for outcome in outcomes:
        model.observe(outcome)
    if report.cancelled:
        model.seen["shutdown-cancel"] += report.cancelled
    tally.update(model.seen)
    problem = model.reconcile(service.stats(), report, outcomes)
    if problem:
        return problem
    count, total = service.database.sql("select count(*), sum(l_amount) from ledger").rows[0]
    if (total or 0) != 0 or count != LEDGER_BATCH * (6 + sum(landed)):
        return f"final ledger: {count} rows summing to {total}; {sum(landed)} batches landed"
    leaked = live_spill_files() - spill_files_before
    return f"leaked spill files: {sorted(leaked)[:3]}" if leaked else None


def serve_stress_profile(threads: int = 8, ops_per_thread: int = 4) -> Profile:
    """The concurrent sweep: each seed gets a fresh service and
    ``threads`` clients; the tally is the scenario mix plus the events
    the clients saw; failures carry the case shape for replay."""

    def check(case: StressCase, tally: Counter) -> Failure | None:
        tally[case.scenario] += 1
        detail = run_stress_case(case, tally)
        return detail and Failure(case.seed, "serve-stress", detail, case, config=case.scenario)

    return Profile("serve-stress", lambda seed: build_stress_case(seed, threads, ops_per_thread),
                   check)
