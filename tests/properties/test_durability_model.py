"""The durability contract, once, as an executable model.

A Hypothesis state machine drives a durable :class:`~repro.api.Database`
through its public surface — create / insert / drop, ``begin`` –
``commit`` – ``rollback``, ``checkpoint(full=...)``, a crash
(``wal.abandon()``: the handle dies without a flush, at any point,
including mid-transaction), a clean restart, ``recover_to`` a remembered
boundary and ``snapshot`` — against a plain-dict model of the
*acknowledged* state. What must hold:

* a reopened store equals the model, tables and version counter both
  (a transaction in flight at the crash contributes nothing, not even
  the versions it consumed);
* recovering twice gives what recovering once gave;
* recovery leaves no ``.tmp`` orphan behind;
* ``recover_to=V`` reproduces exactly the state remembered at V;
* a pinned snapshot never moves.

One machine per fsync policy, with and without ``archive``; segments
are a few frames long so rotation, retirement and multi-segment
rollback happen inside every example. The seeded crash *points* (torn
writes, failed fsyncs, checkpoint phases) stay with
``repro.fuzz.durability``; this file states what any of them must
recover to.
"""

from __future__ import annotations

import copy
import os
import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.api import Database
from repro.errors import WalError
from repro.storage import DataType
from repro.storage.wal import FSYNC_POLICIES

COLUMNS = [("k", DataType.INTEGER), ("v", DataType.STRING)]
NAMES = ("t0", "t1", "t2")
SEGMENT_BYTES = 256

rows = st.lists(
    st.tuples(st.integers(0, 99), st.sampled_from(("a", "b", "c"))),
    min_size=1,
    max_size=3,
)


def observed(db: Database) -> tuple[dict[str, list[tuple]], int]:
    tables = {table.name: list(table.rows) for table in db.catalog}
    return tables, db.catalog.version


class DurableStore(RuleBasedStateMachine):
    fsync = "always"
    archive = False

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-wal-model-")
        #: The model: acknowledged tables and the version they are at.
        self.tables: dict[str, list[tuple]] = {}
        self.version = 0
        #: Open transaction, and the (tables, version) to fall back to.
        self.txn = None
        self.before_txn: tuple[dict[str, list[tuple]], int] | None = None
        #: Committed states ``recover_to`` must be able to reproduce.
        self.boundaries: dict[int, dict[str, list[tuple]]] = {0: {}}
        self.snapshots: list[tuple[Database, dict[str, list[tuple]]]] = []
        self.db = self._open()

    def _open(self) -> Database:
        return Database.open(
            self.directory,
            fsync=self.fsync,
            segment_bytes=SEGMENT_BYTES,
            archive=self.archive,
        )

    def teardown(self) -> None:
        self.db.wal.abandon()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _took_a_version(self) -> None:
        self.version += 1
        if self.txn is None:
            self.boundaries[self.version] = copy.deepcopy(self.tables)

    def _reopen_and_compare(self) -> None:
        """Recover twice; both must equal the model, neither may litter."""
        self.snapshots.clear()  # they belonged to the dead handle
        for again in (False, True):
            if again:
                self.db.close()
            self.db = self._open()
            assert observed(self.db) == (self.tables, self.version)
            assert self.db.wal.recoveries == 1
            leftovers = [
                name
                for name in os.listdir(self.directory)
                if name.endswith(".tmp")
            ]
            assert not leftovers

    # -- mutations -------------------------------------------------------

    @precondition(lambda self: len(self.tables) < len(NAMES))
    @rule(pick=st.integers(0, 10))
    def create_table(self, pick: int) -> None:
        free = [name for name in NAMES if name not in self.tables]
        name = free[pick % len(free)]
        self.db.create_table(name, COLUMNS, [])
        self.tables[name] = []
        self._took_a_version()

    @precondition(lambda self: self.tables)
    @rule(pick=st.integers(0, 10), new_rows=rows)
    def insert(self, pick: int, new_rows: list[tuple]) -> None:
        name = sorted(self.tables)[pick % len(self.tables)]
        self.db.catalog.insert_rows(name, new_rows)
        self.tables[name].extend(new_rows)
        self._took_a_version()

    @precondition(lambda self: self.tables)
    @rule(pick=st.integers(0, 10))
    def drop_table(self, pick: int) -> None:
        name = sorted(self.tables)[pick % len(self.tables)]
        self.db.catalog.drop(name)
        del self.tables[name]
        self._took_a_version()

    # -- transactions ----------------------------------------------------

    @precondition(lambda self: self.txn is None)
    @rule()
    def begin(self) -> None:
        self.before_txn = (copy.deepcopy(self.tables), self.version)
        self.txn = self.db.begin()
        self.version += 1  # the begin marker

    @precondition(lambda self: self.txn is not None)
    @rule()
    def commit(self) -> None:
        self.txn.commit()
        self.txn = None
        self._took_a_version()  # the commit marker

    @precondition(lambda self: self.txn is not None)
    @rule()
    def rollback(self) -> None:
        self.txn.rollback()
        self.txn = None
        # The data goes back; the versions the block consumed do not.
        self.tables = self.before_txn[0]
        self._took_a_version()  # the abort marker

    # -- checkpoints -----------------------------------------------------

    @rule(full=st.booleans())
    def checkpoint(self, full: bool) -> None:
        if self.txn is not None:
            with pytest.raises(WalError):
                self.db.checkpoint(full=full)
            return
        self.db.checkpoint(full=full)
        if not self.archive:
            # The segments below the checkpoint are deleted: only the
            # checkpointed state itself is still promised.
            self.boundaries = {self.version: copy.deepcopy(self.tables)}

    # -- crash, restart, time travel -------------------------------------

    @rule()
    def crash(self) -> None:
        self.db.wal.abandon()
        if self.txn is not None:
            # All of a transaction or none of it — and without a durable
            # terminator, none, down to the version counter.
            self.tables, self.version = self.before_txn
            self.txn = None
        self._reopen_and_compare()

    @precondition(lambda self: self.txn is None)
    @rule()
    def clean_restart(self) -> None:
        self.db.close()
        self._reopen_and_compare()

    @rule(pick=st.integers(0, 1000))
    def recover_to(self, pick: int) -> None:
        versions = sorted(self.boundaries)
        version = versions[pick % len(versions)]
        at = Database.open(self.directory, recover_to=version)
        assert observed(at) == (self.boundaries[version], version)
        assert at.wal is None  # read-only: no writer was attached

    @precondition(lambda self: self.txn is None)
    @rule()
    def snapshot(self) -> None:
        pinned = (self.db.snapshot(), copy.deepcopy(self.tables))
        self.snapshots = self.snapshots[-2:] + [pinned]

    # -- what holds after every step -------------------------------------

    @invariant()
    def live_handle_matches_the_model(self) -> None:
        assert observed(self.db) == (self.tables, self.version)

    @invariant()
    def pinned_snapshots_do_not_move(self) -> None:
        for pinned, tables in self.snapshots:
            assert observed(pinned)[0] == tables


@pytest.mark.parametrize("archive", [False, True], ids=["truncate", "archive"])
@pytest.mark.parametrize("fsync", FSYNC_POLICIES)
def test_reopened_store_equals_the_acknowledged_model(fsync, archive):
    machine = type(
        "DurableStore", (DurableStore,), {"fsync": fsync, "archive": archive}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=30, stateful_step_count=20, deadline=None
        ),
    )
