"""The durability contract as one model, and the seeded ``durability``
profile that drives it through crash points.

The ``chaos`` profile (:mod:`repro.fuzz.chaos`) asserts "correct rows
or a typed error" for queries under faults; this module states the
storage half of the robustness contract — **exact transactional prefix
durability** — once: :class:`StoreModel` is the acknowledged state,
:func:`step` runs one action through the public
:class:`~repro.api.Database` surface and advances the model by its
outcome, and :func:`reopen_and_check` holds a recovered store to the
model. Two drivers share them: the Hypothesis state machine in
``tests/properties/test_durability_model.py``, one :func:`step` per
rule, and the seeded profile below.

Each seed fixes an fsync policy (including group commit), a segment
size, archive mode, a number of commit points and checkpoints, and one
crash point from :data:`repro.execution.faults.DURABILITY_POINTS`: a
kill before the Nth WAL append, a short (torn) write of the Nth WAL
frame, an fsync failure at the Nth WAL sync, a kill immediately *after*
a group-commit batch fsync (the batch is durable, nothing was
acknowledged — the "in doubt" window), a crash during a checkpoint (mid
temp write / before the atomic rename / before the superseded-segment
deletion), or no fault at all (clean shutdown + reopen). The workload,
drawn action by action from the model's current state, runs until it
finishes or the armed point fires (a
:class:`~repro.execution.faults.SimulatedCrash`: the store is abandoned
exactly as a dead process would leave it); then it is reopened and
checked.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from collections import Counter
from dataclasses import asdict, astuple, dataclass
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
    active_plan,
    fault_injection,
)
from repro.fuzz.driver import Failure, Profile
from repro.storage import DataType
from repro.storage.wal import FSYNC_GROUP, FSYNC_NEVER, FSYNC_POLICIES

#: The columns of every table the drivers create (no primary key).
COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]
#: The column sets an index may cover.
INDEX_COLUMNS = (("k",), ("v",), ("k", "v"))

_NEW_TABLE = {
    "columns": tuple((name, dtype.value) for name, dtype in COLUMNS),
    "rows": (),
    "primary_key": None,
    "indexes": (),
}

#: How :func:`step` runs each action on a database.
_ACTIONS = {
    "create": lambda db, name: db.create_table(name, COLUMNS, []),
    "insert": lambda db, name, rows: db.catalog.insert_rows(name, rows),
    "create_index": lambda db, name, key: db.create_index(name, list(key)),
    "add_foreign_key": lambda db, child, parent: db.add_foreign_key(
        child, ["k"], parent, ["k"]
    ),
    "drop": lambda db, name: db.catalog.drop(name),
    "begin": lambda db: db.catalog.begin_transaction(),
    "commit": lambda db: db.catalog.commit_transaction(),
    "rollback": lambda db: db.catalog.rollback_transaction(),
    "checkpoint": lambda db: db.checkpoint(),
}


def catalog_fingerprint(db: Database) -> dict[str, Any]:
    """Everything the exact-prefix invariant compares, as plain data —
    the shape :class:`StoreModel` keeps its states in."""
    return {
        "version": db.catalog.version,
        "tables": {
            table.name: {
                "columns": tuple(
                    (c.name, c.dtype.value) for c in table.schema
                ),
                "rows": tuple(table.rows),
                "primary_key": table.primary_key,
                "indexes": tuple(sorted(table.indexes)),
            }
            for table in db.catalog
        },
        # (child table, child columns, parent table, parent columns)
        "foreign_keys": tuple(
            sorted(astuple(fk) for fk in db.catalog.foreign_keys())
        ),
    }


class StoreModel:
    """The acknowledged state of one durable store, as plain data.

    A transaction contributes all of its operations or none, and a crash
    mid-transaction none — not even the versions it consumed. The one
    sanctioned ambiguity is the group-commit in-doubt window: a crash
    after the batch fsync but before the ack may recover the in-flight
    action as well, and the store must then equal exactly that
    alternative, never anything in between. A state has
    :func:`catalog_fingerprint`'s shape and is never mutated once built
    — an action builds the next one — so remembering a state is keeping
    a reference to it.
    """

    def __init__(self, archive: bool = False) -> None:
        #: Archive mode keeps superseded history, so a checkpoint does
        #: not end what ``recover_to`` can reach.
        self.archive = archive
        #: What the open handle shows, an open transaction's work included.
        self.state = {"version": 0, "tables": {}, "foreign_keys": ()}
        #: The state the open transaction began from; None outside one.
        self.fallback: dict[str, Any] | None = None
        #: Committed states ``recover_to`` must reproduce, by version.
        self.boundaries: dict[int, dict[str, Any]] = {0: self.state}
        #: Begin versions of acknowledged transactions — strictly
        #: inside a bracket, so ``recover_to`` must refuse them.
        self.interior: list[int] = []
        #: The in-doubt alternative to :meth:`acknowledged`, if any.
        self.in_doubt: dict[str, Any] | None = None

    @property
    def tables(self) -> list[str]:
        return sorted(self.state["tables"])

    @property
    def in_transaction(self) -> bool:
        return self.fallback is not None

    def acknowledged(self) -> dict[str, Any]:
        """What recovery must return if the process died now."""
        return self.state if self.fallback is None else self.fallback

    def outcome(self, action: tuple) -> dict[str, Any]:
        """The state the store shows once ``action`` has succeeded."""
        kind, *args = action
        if kind == "checkpoint":
            return self.state
        # The data goes back on rollback; the versions consumed do not.
        base = self.fallback if kind == "rollback" else self.state
        tables, fks = dict(base["tables"]), base["foreign_keys"]
        table = tables.get(args[0]) if args else None
        if kind == "create":
            tables[args[0]] = _NEW_TABLE
        elif kind == "insert":
            tables[args[0]] = {**table, "rows": table["rows"] + tuple(args[1])}
        elif kind == "create_index":
            if tuple(args[1]) in table["indexes"]:
                return self.state  # the existing index: no record
            indexes = tuple(sorted((*table["indexes"], tuple(args[1]))))
            tables[args[0]] = {**table, "indexes": indexes}
        elif kind == "add_foreign_key":
            fks = tuple(sorted((*fks, (args[0], ("k",), args[1], ("k",)))))
        elif kind == "drop":
            # A drop cascades over every FK that names the table.
            del tables[args[0]]
            fks = tuple(fk for fk in fks if args[0] not in (fk[0], fk[2]))
        # Each journaled action, transaction markers included, takes a version.
        version = self.state["version"] + 1
        return {"version": version, "tables": tables, "foreign_keys": fks}

    def reopened(self) -> None:
        """The store was recovered to :meth:`acknowledged`."""
        self.state, self.fallback = self.acknowledged(), None
        self.in_doubt = None


def step(db: Database, model: StoreModel, action: tuple) -> bool:
    """Run ``action`` on ``db`` and advance ``model`` by its outcome.

    ``action`` is a kind from :data:`_ACTIONS` and its arguments. Returns
    True when the store acknowledged it and False when it refused it
    with a typed :class:`~repro.errors.WalError` (the model then keeps
    no trace of it). A :class:`SimulatedCrash` propagates to the caller,
    which abandons the handle.
    """
    kind = action[0]
    try:
        _ACTIONS[kind](db, *action[1:])
    except WalError:
        if kind in ("commit", "rollback"):
            # A failed terminator ends its transaction: the catalog rolls
            # back, and so does recovery the unterminated bracket it left.
            model.state, model.fallback = model.fallback, None
        return False
    except SimulatedCrash:
        plan = active_plan()
        if plan is not None and plan.group_fsync_kill_at is not None:
            # Only a commit point waits on a group fsync, and this crash
            # strikes after it succeeded: the action is durable but was
            # never acknowledged.
            model.in_doubt = model.outcome(action)
        raise
    after = model.outcome(action)
    if kind == "begin":
        model.fallback = model.state
    elif kind in ("commit", "rollback"):
        model.interior.append(model.fallback["version"] + 1)
        model.fallback = None
    elif kind == "checkpoint" and not model.archive:
        # The segments below the checkpoint are deleted: only the
        # checkpointed state itself is still promised.
        model.boundaries = {}
    model.state = after
    if model.fallback is None:
        model.boundaries[after["version"]] = after
    return True


def reopen_and_check(directory: str, model: StoreModel) -> str | None:
    """Recover ``directory`` and hold it to ``model``; None when every
    check held, else what broke.

    The recovered fingerprint must equal the acknowledged state or its
    in-doubt alternative, a second recovery must see what the first
    did, neither may leave a ``.tmp`` file, every remembered boundary
    must be reproduced by ``recover_to``, and the newest interior
    version and the version beyond the recovered one must be refused
    with the typed :class:`~repro.errors.PointInTimeUnavailable`.
    """
    recovered = []
    for _ in range(2):
        try:
            db = Database.open(directory, archive=model.archive)
        except WalCorruptionError as error:
            return f"recovery refused a crash-consistent store: {error}"
        recovered.append(catalog_fingerprint(db))
        db.close()
    leaked = [name for name in os.listdir(directory) if name.endswith(".tmp")]
    got, again = recovered
    if got not in (model.acknowledged(), model.in_doubt):
        return f"recovered state {_diff(model.acknowledged(), got)}"
    if again != got:
        return "second recovery diverged from the first"
    if leaked:
        return f"leaked temp files after recovery: {leaked}"
    for version, state in sorted(model.boundaries.items()):
        try:
            at = Database.open(directory, recover_to=version)
        except WalError as error:
            return f"recover_to={version} refused a boundary: {error}"
        if catalog_fingerprint(at) != state:
            detail = _diff(state, catalog_fingerprint(at))
            return f"recover_to={version} {detail}"
    for version in [got["version"] + 1, *model.interior[-1:]]:
        try:
            Database.open(directory, recover_to=version)
        except PointInTimeUnavailable:
            continue
        return f"recover_to={version} (not a committed boundary) succeeded"
    return None


def _diff(want: dict[str, Any], got: dict[str, Any]) -> str:
    """Where ``got`` differs from ``want``, for a failure's detail."""
    parts = [k for k in ("version", "foreign_keys") if want[k] != got[k]]
    for name in sorted({*want["tables"], *got["tables"]}):
        mine = want["tables"].get(name, {})
        theirs = got["tables"].get(name, {})
        fields = [k for k in _NEW_TABLE if mine.get(k) != theirs.get(k)]
        if fields:
            parts.append(f"{name} {'/'.join(fields)}")
    return "differs from the model in " + ", ".join(parts)


def _armed(fault: FaultPlan) -> tuple[str, int]:
    """The point ``fault`` arms and its index; ``("none", -1)`` if none."""
    if fault.checkpoint_crash_at is not None:
        phase = fault.checkpoint_crash_phase
        return f"checkpoint-{phase}", fault.checkpoint_crash_at
    for point, index in (
        ("wal-kill", fault.wal_kill_at),
        ("wal-short-write", fault.wal_short_write_at),
        ("wal-fsync-fail", fault.wal_fsync_fail_at),
        ("group-fsync-kill", fault.group_fsync_kill_at),
    ):
        if index is not None:
            return point, index
    return "none", -1


@dataclass
class DurabilityCase:
    """Everything one seed decided; replaying the seed rebuilds it."""

    seed: int
    fsync: str
    fault: FaultPlan
    #: Autocommit actions and transaction blocks to run.
    commits: int
    #: Checkpoints to take, spread over the commit points.
    checkpoints: int
    segment_bytes: int
    archive: bool

    @property
    def scenario(self) -> str:
        return _armed(self.fault)[0]

    def describe(self) -> dict[str, Any]:
        return {**asdict(self), "scenario": self.scenario}


def build_durability_case(seed: int) -> DurabilityCase:
    """Deterministically derive one durability case from its seed."""
    rng = random.Random(seed)
    # Every draw happens unconditionally so each knob's value depends
    # only on the seed, never on another knob.
    fsync = rng.choice(FSYNC_POLICIES)
    fault = FaultPlan.for_durability(seed, appends=28, checkpoints=3)
    commits = rng.randrange(12, 30)
    checkpoints = rng.randrange(4)
    # Tiny segments force rotation mid-workload; large ones keep
    # everything in one file — both paths must recover.
    segment_bytes = rng.choice((256, 4096, 1 << 20))
    archive = rng.choice((False, True))
    # Aim the armed point at work the case does: more checkpoints than
    # a checkpoint index, more commit points than a WAL index (each one
    # appends a record and, unless fsync is "never", waits on an fsync).
    point, index = _armed(fault)
    if point.startswith("checkpoint-"):
        checkpoints = max(checkpoints, index + 1)
    else:
        commits = max(commits, index + 1)
    if point == "group-fsync-kill":
        # The group-fsync crash point only exists under the group policy.
        fsync = FSYNC_GROUP
    if point == "wal-fsync-fail" and fsync == FSYNC_NEVER:
        # "never" never fsyncs, so its fsync can never fail.
        fsync = FSYNC_POLICIES[seed % 2]
    return DurabilityCase(
        seed, fsync, fault, commits, checkpoints, segment_bytes, archive
    )


def _draw(rng: random.Random, model: StoreModel, closing: bool) -> tuple:
    """The next action, applicable in the model's current state;
    ``closing`` ends an open transaction."""
    if model.in_transaction and (closing or rng.random() < 0.3):
        return ("commit",) if rng.random() < 0.7 else ("rollback",)
    if not model.in_transaction and rng.random() < 0.15:
        return ("begin",)
    tables = model.tables
    choices = ["create"]
    if tables:
        choices += ["insert"] * 6 + ["create_index", "add_foreign_key"]
        if len(tables) > 2:
            choices.append("drop")
    kind = rng.choice(choices)
    if kind == "create":
        # Versions never repeat, so neither do the names of new tables.
        return ("create", f"t{model.state['version']}")
    table = rng.choice(tables)
    indexed = model.state["tables"][table]["indexes"]
    # An existing index journals nothing, so only new ones are drawn.
    new_indexes = [key for key in INDEX_COLUMNS if key not in indexed]
    if kind == "create_index" and new_indexes:
        return ("create_index", table, rng.choice(new_indexes))
    if kind == "add_foreign_key":
        return ("add_foreign_key", table, rng.choice(tables))
    if kind == "drop":
        return ("drop", table)
    rows = [
        (rng.randrange(1000), f"v{rng.randrange(100)}")
        for _ in range(rng.randrange(1, 5))
    ]
    return ("insert", table, rows)


def _drive(case: DurabilityCase, db: Database, model: StoreModel) -> bool:
    """Run the case's commit points and checkpoints; returns whether a
    step was refused (only an armed fsync failure refuses anything)."""
    rng = random.Random(case.seed * 7919 + 17)
    # Checkpoint k of n falls due after k/(n+1) of the commit points and
    # waits for an open transaction to end.
    due = [
        case.commits * k // (case.checkpoints + 1)
        for k in range(1, case.checkpoints + 1)
    ]
    commits = 0
    refused = False
    while commits < case.commits or model.in_transaction or due:
        if due and commits >= due[0] and not model.in_transaction:
            due.pop(0)
            action = ("checkpoint",)
        else:
            action = _draw(rng, model, commits >= case.commits)
        if not step(db, model, action):
            refused = True
            if case.fsync == FSYNC_GROUP:
                # A failed group fsync strikes after the catalog applied
                # the action and poisons the log: the handle has moved
                # past the model and nothing later can be acknowledged.
                break
        # Outside a transaction, anything but a checkpoint committed.
        commits += not (model.in_transaction or action[0] == "checkpoint")
    return refused


def run_durability_case(case: DurabilityCase) -> tuple[bool, str | None]:
    """Run one case: whether its armed point fired, and None when the
    invariant held, else a detail string."""
    directory = tempfile.mkdtemp(prefix="repro-wal-chaos-")
    model = StoreModel(archive=case.archive)
    try:
        with fault_injection(case.fault):
            db = Database.open(
                directory,
                fsync=case.fsync,
                segment_bytes=case.segment_bytes,
                archive=case.archive,
            )
            try:
                fired = _drive(case, db, model)
            except SimulatedCrash:
                db.wal.abandon()
                fired = True
            else:
                db.close()
        return fired, reopen_and_check(directory, model)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _check(case: DurabilityCase, tally: Counter) -> Failure | None:
    # The scenario, fsync and fired mixes land in the summary line, so a
    # changed draw, or a point that stops firing, shows in the CI log.
    tally[case.scenario] += 1
    tally[f"fsync:{case.fsync}"] += 1
    fired, detail = run_durability_case(case)
    if fired:
        tally[f"fired:{case.scenario}"] += 1
    if detail is None:
        return None
    return Failure(case.seed, "durability", detail, case, config=case.scenario)


PROFILE = Profile("durability", build_durability_case, _check)
