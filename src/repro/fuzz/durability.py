"""The ``durability`` profile: seeded crash points against a durable
database.

The ``chaos`` profile (:mod:`repro.fuzz.chaos`) asserts "correct rows
or a typed error" for queries under faults; this module asserts the
storage half of the robustness contract — **exact transactional prefix
durability**. Each seed deterministically derives a workload of catalog
events — autocommit mutations interleaved with multi-statement
transaction blocks that commit or roll back — plus checkpoints, an
fsync policy (including group commit), WAL tuning knobs, archive mode,
and one crash point from
:data:`repro.execution.faults.DURABILITY_POINTS`:

* kill before the Nth WAL append,
* a short (torn) write of the Nth WAL frame,
* an fsync failure at the Nth WAL sync,
* a kill immediately *after* a group-commit batch fsync (the batch is
  durable, nothing was acknowledged — the "in doubt" window),
* a crash during a checkpoint (mid temp write / before the atomic
  rename / before the superseded-segment deletion),
* or no fault at all (clean shutdown + reopen).

The workload runs until it finishes or the armed point fires
(:class:`~repro.execution.faults.SimulatedCrash`, whereupon the store is
abandoned exactly as a dead process would leave it). Then
``Database.open`` recovers, and the invariant is checked: the recovered
catalog equals — tables, rows, schemas, primary keys, index column
sets, foreign keys, and the version counter itself — a catalog built by
replaying exactly the *acknowledged committed* events. A transaction
contributes all of its operations or none; a crash mid-transaction
contributes none. The one sanctioned ambiguity is the group-commit
in-doubt window: a crash after the batch fsync but before the ack may
recover the in-flight event as well — the recovered state must then
equal acked-plus-exactly-that-event, never anything in between.

On top of the prefix check, cases whose history is complete (archive
mode, or no checkpoint ever truncated the log) verify **point-in-time
recovery**: ``Database.open(recover_to=V)`` at a deterministically
chosen committed boundary must reproduce exactly the committed prefix
up to V, a version inside a transaction must be refused with the typed
:class:`~repro.errors.PointInTimeUnavailable`, and so must a version
beyond the newest committed state.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from typing import Any

from repro.api import Database
from repro.errors import (
    PointInTimeUnavailable,
    WalCorruptionError,
    WalError,
)
from repro.execution.faults import (
    FaultPlan,
    SimulatedCrash,
    fault_injection,
)
from repro.fuzz.chaos import scenario_check
from repro.fuzz.driver import Failure, Profile
from repro.storage import DataType
from repro.storage.wal import FSYNC_GROUP, FSYNC_POLICIES

_COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]


@dataclass
class DurabilityCase:
    """Everything one seed decided; replaying the seed rebuilds it."""

    seed: int
    fsync: str
    fault: FaultPlan
    op_count: int
    checkpoint_every: int  # 0 = never checkpoint (counted in events)
    segment_bytes: int
    archive: bool

    @property
    def scenario(self) -> str:
        fault = self.fault
        if fault.wal_kill_at is not None:
            return "wal-kill"
        if fault.wal_short_write_at is not None:
            return "wal-short-write"
        if fault.wal_fsync_fail_at is not None:
            return "wal-fsync-fail"
        if fault.group_fsync_kill_at is not None:
            return "group-fsync-kill"
        if fault.checkpoint_crash_at is not None:
            return f"checkpoint-{fault.checkpoint_crash_phase}"
        return "none"

    def describe(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "scenario": self.scenario,
            "fsync": self.fsync,
            "op_count": self.op_count,
            "checkpoint_every": self.checkpoint_every,
            "segment_bytes": self.segment_bytes,
            "archive": self.archive,
            "fault": self.fault.to_dict(),
        }


def build_durability_case(seed: int) -> DurabilityCase:
    """Deterministically derive one durability case from its seed."""
    rng = random.Random(seed)
    # Every draw happens unconditionally so each knob's value depends
    # only on the seed, never on another knob.
    fsync = rng.choice(FSYNC_POLICIES)
    fault = FaultPlan.for_durability(seed, appends=28, checkpoints=3)
    op_count = rng.randrange(12, 30)
    checkpoint_every = rng.choice((0, 5, 9))
    segment_bytes = rng.choice((256, 4096, 1 << 20))
    archive = rng.choice((False, True))
    if fault.group_fsync_kill_at is not None:
        # The group-fsync crash point only exists under the group
        # policy; forcing it (after all draws) keeps the scenario from
        # degenerating into a clean run two times out of three.
        fsync = FSYNC_GROUP
    return DurabilityCase(
        seed=seed,
        fsync=fsync,
        fault=fault,
        op_count=op_count,
        checkpoint_every=checkpoint_every,
        # Tiny segments force rotation mid-workload; large ones keep
        # everything in one file — both paths must recover.
        segment_bytes=segment_bytes,
        archive=archive,
    )


def _one_op(
    rng: random.Random, live: list[str], next_id: int
) -> tuple[tuple, int]:
    """One mutation that is applicable given the current ``live`` tables
    (mutates ``live`` in place); returns (op, next_id)."""
    choices = ["create"]
    if live:
        choices += ["insert"] * 6 + ["index", "fk"]
        if len(live) > 2:
            choices.append("drop")
    kind = rng.choice(choices)
    if kind == "create":
        name = f"t{next_id}"
        live.append(name)
        return ("create_table", name), next_id + 1
    if kind == "insert":
        table = rng.choice(live)
        rows = [
            (rng.randrange(1000), f"v{rng.randrange(100)}")
            for _ in range(rng.randrange(1, 5))
        ]
        return ("insert_rows", table, rows), next_id
    if kind == "index":
        table = rng.choice(live)
        columns = rng.choice((["k"], ["v"], ["k", "v"]))
        return ("create_index", table, columns), next_id
    if kind == "fk":
        child = rng.choice(live)
        parent = rng.choice(live)
        return ("add_foreign_key", child, ["k"], parent, ["k"]), next_id
    table = live.pop(rng.randrange(len(live)))
    return ("drop_table", table), next_id


def _generate_events(rng: random.Random, count: int) -> list[tuple]:
    """A deterministic event sequence: ``("op", op)`` autocommit events
    and ``("txn", [ops], "commit"|"rollback")`` transaction blocks.

    Generation assumes planned outcomes: a rolled-back block restores
    the live-table list (its effects never happened), a committed block
    keeps them. Table ids never repeat, so a block that *fails* at run
    time can only make later events reference missing tables — which the
    runner skips via its dead-table set — never alias a different one.
    """
    events: list[tuple] = []
    live: list[str] = []
    next_id = 0
    budget = count
    while budget > 0:
        if rng.random() < 0.35:
            n_ops = min(budget, rng.randrange(1, 5))
            outcome = "commit" if rng.random() < 0.7 else "rollback"
            saved_live = list(live)
            ops = []
            for _ in range(n_ops):
                op, next_id = _one_op(rng, live, next_id)
                ops.append(op)
            if outcome == "rollback":
                live[:] = saved_live
            events.append(("txn", ops, outcome))
            budget -= n_ops
        else:
            op, next_id = _one_op(rng, live, next_id)
            events.append(("op", op))
            budget -= 1
    return events


def _apply_op(db: Database, op: tuple) -> None:
    kind = op[0]
    if kind == "create_table":
        db.create_table(op[1], _COLUMNS, [])
    elif kind == "insert_rows":
        db.catalog.insert_rows(op[1], op[2])
    elif kind == "create_index":
        db.catalog.create_index(op[1], op[2])
    elif kind == "add_foreign_key":
        db.catalog.add_foreign_key(op[1], op[2], op[3], op[4])
    elif kind == "drop_table":
        db.catalog.drop(op[1])
    else:  # pragma: no cover - generator and applier move together
        raise AssertionError(f"unknown op {kind!r}")


def _op_tables(op: tuple) -> tuple[str, ...]:
    if op[0] == "add_foreign_key":
        return (op[1], op[3])
    return (op[1],)


def _references_dead_table(op: tuple, dead: set[str]) -> bool:
    if not dead or op[0] == "create_table":
        return False
    return any(t in dead for t in _op_tables(op))


def catalog_fingerprint(db: Database) -> dict[str, Any]:
    """Everything the exact-prefix invariant compares, as plain data."""
    return {
        "version": db.catalog.version,
        "tables": {
            table.name: {
                "columns": [(c.name, c.dtype.value) for c in table.schema],
                "rows": list(table.rows),
                "primary_key": table.primary_key,
                "indexes": sorted(table.indexes),
            }
            for table in db.catalog
        },
        "foreign_keys": sorted(
            (
                fk.child_table,
                fk.child_columns,
                fk.parent_table,
                fk.parent_columns,
            )
            for fk in db.catalog.foreign_keys()
        ),
    }


def _expected_fingerprint(ops: list[tuple], version: int) -> dict[str, Any]:
    """Fingerprint of replaying ``ops`` with the version pinned.

    The replay database is non-durable (each op bumps the version by
    exactly 1), but the durable store also consumes versions for
    transaction begin/commit/abort markers — ``version`` carries the
    marker-inclusive count the recovered store must report."""
    expected = Database()
    for op in ops:
        _apply_op(expected, op)
    fingerprint = catalog_fingerprint(expected)
    fingerprint["version"] = version
    return fingerprint


def run_durability_case(case: DurabilityCase) -> str | None:
    """Run one case; None when the invariant held, else a detail string."""
    directory = tempfile.mkdtemp(prefix="repro-wal-chaos-")
    try:
        return _run_in_directory(case, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


class _Workload:
    """Mutable run-state of one chaos case: the acked ledger and the
    bookkeeping that predicts the recovered store."""

    def __init__(self) -> None:
        #: Operations covered by an acknowledged commit, in order.
        self.committed: list[tuple] = []
        #: The version the recovered store must report — committed ops
        #: plus every acknowledged transaction marker.
        self.version = 0
        #: (version, committed-op count) after each acked event — the
        #: committed-state boundaries PITR must reproduce.
        self.boundaries: list[tuple[int, int]] = [(0, 0)]
        #: Tables whose create never took effect; later events that
        #: reference them are skipped (the generator assumed the create).
        self.dead: set[str] = set()
        #: The begin-record version of the first acknowledged
        #: transaction — a version strictly inside a transaction, which
        #: PITR must refuse.
        self.interior_version: int | None = None
        #: The event in flight when a crash fired *after* its records
        #: may have become durable (group-commit in-doubt window).
        self.in_doubt: tuple[list[tuple], int] | None = None

    def ack_event(self, ops: list[tuple], version_delta: int) -> None:
        self.committed.extend(ops)
        self.version += version_delta
        self.boundaries.append((self.version, len(self.committed)))


def _run_events(
    case: DurabilityCase, db: Database, events: list[tuple], w: _Workload
) -> bool:
    """Apply the workload; returns True if a SimulatedCrash fired."""
    for event in events:
        if event[0] == "op":
            op = event[1]
            if _references_dead_table(op, w.dead):
                continue
            before = db.catalog.version
            try:
                _apply_op(db, op)
            except SimulatedCrash:
                if case.fault.group_fsync_kill_at is not None:
                    # The batch fsync succeeded before the kill: the op
                    # is durable but was never acknowledged.
                    w.in_doubt = ([op], 1)
                return True
            except WalError:
                # Typed append/fsync failure: the op was NOT acknowledged
                # and its frame was rolled back — it must not reappear.
                if op[0] == "create_table":
                    w.dead.add(op[1])
                continue
            # A duplicate create_index is a catalog no-op: it journals
            # nothing and consumes no version (and 'succeeds' even on a
            # poisoned WAL). Count what really happened — the in-memory
            # before/after delta — not what the generator planned.
            w.ack_event([op], db.catalog.version - before)
        else:
            _, ops, outcome = event
            try:
                txn = db.begin()
            except SimulatedCrash:
                return True
            except WalError:
                # Poisoned/failed WAL: the whole block never started.
                for op in ops:
                    if op[0] == "create_table":
                        w.dead.add(op[1])
                continue
            applied: list[tuple] = []
            consumed = 0  # versions the block's ops actually took
            try:
                for op in ops:
                    if _references_dead_table(op, w.dead):
                        continue
                    before = db.catalog.version
                    try:
                        _apply_op(db, op)
                    except WalError:
                        if op[0] == "create_table":
                            w.dead.add(op[1])
                        continue
                    applied.append(op)
                    consumed += db.catalog.version - before
                if outcome == "commit":
                    txn.commit()
                else:
                    txn.rollback()
            except SimulatedCrash:
                if case.fault.group_fsync_kill_at is not None:
                    # group-fsync-kill fires only after a successful
                    # batch fsync, and inside a transaction only the
                    # terminator waits on one — so the whole block (or
                    # for a rollback, its version bumps) is durable but
                    # unacknowledged.
                    kept = applied if outcome == "commit" else []
                    w.in_doubt = (kept, 2 + consumed)
                return True
            except WalError:
                # The terminator failed to append: the catalog rolled
                # back and the WAL is poisoned — the block contributes
                # nothing durable, and neither will anything after it.
                for op in ops:
                    if op[0] == "create_table":
                        w.dead.add(op[1])
                continue
            if w.interior_version is None:
                w.interior_version = w.version + 1
            if outcome == "commit":
                w.ack_event(applied, 2 + consumed)
            else:
                w.ack_event([], 2 + consumed)
                for op in applied:
                    if op[0] == "create_table":
                        w.dead.add(op[1])
    return False


def _run_in_directory(case: DurabilityCase, directory: str) -> str | None:
    rng = random.Random(case.seed * 7919 + 17)
    events = _generate_events(rng, case.op_count)
    w = _Workload()
    crashed = False
    with fault_injection(case.fault):
        db = Database.open(
            directory,
            fsync=case.fsync,
            segment_bytes=case.segment_bytes,
            archive=case.archive,
        )
        checkpoint_clock = 0
        for start in range(0, len(events)):
            crashed = _run_events(case, db, events[start:start + 1], w)
            if crashed:
                db.wal.abandon()
                break
            checkpoint_clock += 1
            if (
                case.checkpoint_every
                and checkpoint_clock % case.checkpoint_every == 0
            ):
                try:
                    db.checkpoint()
                except SimulatedCrash:
                    crashed = True
                    db.wal.abandon()
                    break
                except WalError:
                    pass  # checkpoint failed; the log is still the truth
        if not crashed:
            db.close()

    want = _expected_fingerprint(w.committed, w.version)
    try:
        recovered = Database.open(directory, archive=case.archive)
    except WalCorruptionError as error:
        return f"recovery refused a crash-consistent store: {error}"
    try:
        got = catalog_fingerprint(recovered)
        accepted = want
        if got != want:
            if w.in_doubt is not None:
                ops, delta = w.in_doubt
                alt = _expected_fingerprint(
                    w.committed + ops, w.version + delta
                )
                if got != alt:
                    return _diff_detail(
                        alt, got, len(w.committed), crashed
                    ) + " (in-doubt variant also mismatched)"
                accepted = alt
            else:
                return _diff_detail(want, got, len(w.committed), crashed)
        leaked = [
            name for name in os.listdir(directory) if name.endswith(".tmp")
        ]
        if leaked:
            return f"leaked temp files after recovery: {leaked}"
    finally:
        recovered.close()
    # Recovery must be idempotent: a second open sees the same state.
    again = Database.open(directory, archive=case.archive)
    try:
        if catalog_fingerprint(again) != accepted:
            return "second recovery diverged from the first"
    finally:
        again.close()
    return _check_pitr(case, directory, w, accepted)


def _check_pitr(
    case: DurabilityCase,
    directory: str,
    w: _Workload,
    accepted: dict[str, Any],
) -> str | None:
    """Point-in-time checks against the recovered store.

    Reproduction of an intermediate boundary needs the full history
    (archive mode, or a log no checkpoint ever truncated); the typed
    refusals hold for every store.
    """
    recovered_version = accepted["version"]
    try:
        Database.open(directory, recover_to=recovered_version + 1000)
        return "recover_to beyond the newest committed version succeeded"
    except PointInTimeUnavailable:
        pass
    if not (case.archive or case.checkpoint_every == 0):
        return None
    reachable = [
        b for b in w.boundaries if b[0] <= recovered_version
    ]
    if reachable:
        pick = random.Random(case.seed * 104729 + 5)
        version, n_ops = reachable[pick.randrange(len(reachable))]
        try:
            at = Database.open(directory, recover_to=version)
        except WalError as error:
            return f"recover_to={version} refused a committed boundary: " \
                f"{error}"
        got = catalog_fingerprint(at)
        want = _expected_fingerprint(w.committed[:n_ops], version)
        if got != want:
            return (
                f"recover_to={version} diverged from the committed prefix: "
                + _diff_detail(want, got, n_ops, crashed=False)
            )
    interior = w.interior_version
    if interior is not None and interior <= recovered_version:
        try:
            Database.open(directory, recover_to=interior)
            return (
                f"recover_to={interior} (inside a transaction) succeeded"
            )
        except PointInTimeUnavailable:
            pass
    return None


def _diff_detail(
    want: dict, got: dict, acked: int, crashed: bool
) -> str:
    parts = [
        f"recovered state != acknowledged prefix ({acked} acked ops, "
        f"crashed={crashed})"
    ]
    if want["version"] != got["version"]:
        parts.append(
            f"version {got['version']} != expected {want['version']}"
        )
    missing = sorted(set(want["tables"]) - set(got["tables"]))
    phantom = sorted(set(got["tables"]) - set(want["tables"]))
    if missing:
        parts.append(f"lost tables {missing}")
    if phantom:
        parts.append(f"phantom tables {phantom}")
    for name in sorted(set(want["tables"]) & set(got["tables"])):
        if want["tables"][name] != got["tables"][name]:
            wrows = want["tables"][name]["rows"]
            grows = got["tables"][name]["rows"]
            parts.append(
                f"table {name}: {len(grows)} rows != {len(wrows)} expected"
            )
    if want["foreign_keys"] != got["foreign_keys"]:
        parts.append("foreign keys diverged")
    return "; ".join(parts)


def _check(case: DurabilityCase, tally: Counter) -> Failure | None:
    # Both mixes land in the summary line, so a change in either draw
    # shows up in the CI log.
    tally[f"fsync:{case.fsync}"] += 1
    return scenario_check("durability", run_durability_case)(case, tally)


PROFILE = Profile("durability", build_durability_case, _check)
