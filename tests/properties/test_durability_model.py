"""The durability contract's second driver: a Hypothesis state machine.

Every rule is one ``step`` of :mod:`repro.fuzz.durability` — home of the
model and of ``reopen_and_check``, which the seeded crash-point sweep
shares — or what only this driver does: crash or clean restarts,
``recover_to`` a remembered boundary or a version inside a transaction,
and pinned snapshots. One machine per fsync policy, with and without
``archive``; segments are a few frames long so rotation, retirement and
multi-segment rollback happen inside every example.
"""

from __future__ import annotations

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
from repro.errors import PointInTimeUnavailable
from repro.fuzz.durability import (
    INDEX_COLUMNS,
    StoreModel,
    catalog_fingerprint,
    reopen_and_check,
    step,
)
from repro.storage.wal import FSYNC_POLICIES

NAMES = ("t0", "t1", "t2")

picks = st.integers(0, 1000)
row = st.tuples(st.integers(0, 99), st.sampled_from("abc"))
rows = st.lists(row, min_size=1, max_size=3)


class DurableStore(RuleBasedStateMachine):
    fsync = "always"
    archive = False

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="repro-wal-model-")
        self.model = StoreModel(archive=self.archive)
        self.snapshots: list[tuple[Database, dict]] = []
        self.db = self._open()

    def _open(self) -> Database:
        return Database.open(
            self.directory,
            fsync=self.fsync,
            segment_bytes=256,  # a few frames
            archive=self.archive,
        )

    def teardown(self) -> None:
        self.db.wal.abandon()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _step(self, *action) -> None:
        assert step(self.db, self.model, action)

    def _table(self, pick: int) -> str:
        return self.model.tables[pick % len(self.model.tables)]

    def _reopen(self) -> None:
        """Recover and check; then carry on from a fresh handle."""
        self.snapshots.clear()  # they belonged to the dead handle
        detail = reopen_and_check(self.directory, self.model)
        assert detail is None, detail
        self.model.reopened()
        self.db = self._open()
        assert self.db.wal.recoveries == 1

    # -- mutations -------------------------------------------------------

    @precondition(lambda self: len(self.model.tables) < len(NAMES))
    @rule(pick=picks)
    def create_table(self, pick: int) -> None:
        free = [name for name in NAMES if name not in self.model.tables]
        self._step("create", free[pick % len(free)])

    @precondition(lambda self: self.model.tables)
    @rule(pick=picks, new_rows=rows)
    def insert(self, pick: int, new_rows: list[tuple]) -> None:
        self._step("insert", self._table(pick), new_rows)

    @precondition(lambda self: self.model.tables)
    @rule(pick=picks, columns=st.sampled_from(INDEX_COLUMNS))
    def create_index(self, pick: int, columns: tuple[str, ...]) -> None:
        self._step("create_index", self._table(pick), columns)

    @precondition(lambda self: self.model.tables)
    @rule(child=picks, parent=picks)
    def add_foreign_key(self, child: int, parent: int) -> None:
        self._step("add_foreign_key", self._table(child), self._table(parent))

    @precondition(lambda self: self.model.tables)
    @rule(pick=picks)
    def drop_table(self, pick: int) -> None:
        self._step("drop", self._table(pick))

    # -- transactions and checkpoints ------------------------------------

    @precondition(lambda self: not self.model.in_transaction)
    @rule()
    def begin(self) -> None:
        self._step("begin")

    @precondition(lambda self: self.model.in_transaction)
    @rule(commit=st.booleans())
    def commit_or_rollback(self, commit: bool) -> None:
        self._step("commit" if commit else "rollback")

    @rule()
    def checkpoint(self) -> None:
        # Refused with the typed error inside a transaction only.
        refused = self.model.in_transaction
        assert step(self.db, self.model, ("checkpoint",)) is not refused

    # -- crash, restart, time travel -------------------------------------

    @rule(clean=st.booleans())
    def restart(self, clean: bool) -> None:
        # A crash (``wal.abandon()``) dies without a flush; either way an
        # open transaction contributes nothing.
        if clean:
            self.db.close()
        else:
            self.db.wal.abandon()
        self._reopen()

    @rule(pick=picks)
    def recover_to(self, pick: int) -> None:
        versions = sorted(self.model.boundaries)
        version = versions[pick % len(versions)]
        at = Database.open(self.directory, recover_to=version)
        assert catalog_fingerprint(at) == self.model.boundaries[version]
        assert at.wal is None  # read-only: no writer was attached

    @precondition(lambda self: self.model.interior)
    @rule(pick=picks)
    def recover_to_inside_a_transaction(self, pick: int) -> None:
        version = self.model.interior[pick % len(self.model.interior)]
        with pytest.raises(PointInTimeUnavailable):
            Database.open(self.directory, recover_to=version)

    @rule()
    def snapshot(self) -> None:
        # Inside a transaction a snapshot pins the state it began from.
        pinned = (self.db.snapshot(), self.model.acknowledged())
        self.snapshots = self.snapshots[-2:] + [pinned]

    # -- what holds after every step -------------------------------------

    @invariant()
    def live_handle_matches_the_model(self) -> None:
        assert catalog_fingerprint(self.db) == self.model.state

    @invariant()
    def pinned_snapshots_do_not_move(self) -> None:
        for pinned, state in self.snapshots:
            assert catalog_fingerprint(pinned) == state


@pytest.mark.parametrize("archive", [False, True], ids=["truncate", "archive"])
@pytest.mark.parametrize("fsync", FSYNC_POLICIES)
def test_reopened_store_equals_the_acknowledged_model(fsync, archive):
    machine = type(
        "DurableStore", (DurableStore,), {"fsync": fsync, "archive": archive}
    )
    run_state_machine_as_test(
        machine,
        settings=settings(
            max_examples=60, stateful_step_count=25, deadline=None
        ),
    )
