"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` names exactly where one run of the engine should
misbehave, from a fixed menu of injection points:

* ``fail spill write`` — the Nth framed record written by
  :mod:`repro.storage.spill` (process-wide, counted from activation)
  raises :class:`~repro.errors.SpillError`;
* the durability crash points (:data:`DURABILITY_POINTS`) — a kill
  before, a torn write during, or a failed fsync after a WAL append; a
  kill after a group-commit fsync; a crash at one of three checkpoint
  phases.

Plans activate through the :func:`fault_injection` context manager,
which installs the plan in a module global consulted at each injection
point — zero overhead when no plan is active (one global read on the
spill-write path, nothing anywhere else). The chaos suite and the
fuzzer's ``chaos`` profile build seeded plans and assert the engine's
core promise under every one of them: **correct rows or a typed error —
never a wrong answer, never a hang**.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import asdict, dataclass
from typing import Iterator

from repro.errors import SpillError

#: Query-execution injection points (``FaultPlan.from_seed``). The
#: durability crash points below live in their own menu
#: (``DURABILITY_POINTS`` / ``FaultPlan.for_durability``).
INJECTION_POINTS = ("spill-write",)

#: Crash points for the durability chaos profile. ``none`` is a real
#: member: clean runs keep the sweep honest about recovery from an
#: orderly shutdown, not only from violence.
DURABILITY_POINTS = (
    "none",
    "wal-kill",
    "wal-short-write",
    "wal-fsync-fail",
    "group-fsync-kill",
    "checkpoint-temp",
    "checkpoint-rename",
    "checkpoint-truncate",
)


class SimulatedCrash(BaseException):
    """The process 'died' at an armed crash point.

    Derives from ``BaseException`` so no engine-internal ``except
    Exception``/``except ReproError`` handler can absorb it — exactly
    like a real ``os._exit`` would tear through them. The durability
    chaos harness catches it explicitly, abandons the in-memory store,
    and re-opens from disk."""


@dataclass(frozen=True)
class FaultPlan:
    """One seeded fault: at most one injection point armed per plan.

    Frozen and built from plain ints/strings so it serializes
    losslessly into chaos-failure artifacts.
    """

    seed: int = 0
    #: Global index (from activation) of the spill record write to fail.
    fail_spill_at: int | None = None
    #: Crash (SimulatedCrash) immediately *before* the Nth WAL append —
    #: nothing of that record reaches disk.
    wal_kill_at: int | None = None
    #: Write only the first ``wal_short_write_keep`` bytes of the Nth WAL
    #: frame, then crash — a torn tail for recovery to truncate.
    wal_short_write_at: int | None = None
    wal_short_write_keep: int = 4
    #: The Nth WAL fsync fails with OSError (the writer rolls the frame
    #: back and raises a typed WalError; the process survives).
    wal_fsync_fail_at: int | None = None
    #: Crash (SimulatedCrash) immediately *after* the Nth successful
    #: group-commit batch fsync — the batch is durable but no waiter was
    #: acknowledged yet, creating durable-but-unacked "in doubt" commits.
    group_fsync_kill_at: int | None = None
    #: Crash during the Nth checkpoint, at one of three phases:
    #: ``temp`` (mid temp-file write — leaves a .tmp orphan), ``rename``
    #: (temp fully written+fsynced, before the atomic rename), or
    #: ``truncate`` (checkpoint renamed into place, before the old
    #: segments are deleted — checkpoint and stale segments coexist).
    checkpoint_crash_at: int | None = None
    checkpoint_crash_phase: str = "temp"

    @classmethod
    def from_seed(cls, seed: int) -> "FaultPlan":
        """A reproducible spill-write fault: the seed picks which record
        write fails."""
        return cls(seed=seed, fail_spill_at=random.Random(seed).randrange(32))

    @classmethod
    def for_durability(
        cls, seed: int, appends: int = 24, checkpoints: int = 3
    ) -> "FaultPlan":
        """A reproducible durability crash plan: the seed picks one point
        from :data:`DURABILITY_POINTS` and its coordinates. ``appends`` /
        ``checkpoints`` bound the indices so the crash usually lands on
        real work."""
        # Pure-int derivation: string seeds hash differently per process
        # (PYTHONHASHSEED), which would make CI reproducers lie.
        rng = random.Random((seed * 0x9E3779B1 + 0xD0B1) % (1 << 62))
        point = rng.choice(DURABILITY_POINTS)
        if point == "wal-kill":
            return cls(seed=seed, wal_kill_at=rng.randrange(max(1, appends)))
        if point == "wal-short-write":
            return cls(
                seed=seed,
                wal_short_write_at=rng.randrange(max(1, appends)),
                # 1..24 bytes: sometimes inside the 8-byte header,
                # sometimes a partial payload.
                wal_short_write_keep=rng.randrange(1, 25),
            )
        if point == "wal-fsync-fail":
            return cls(
                seed=seed, wal_fsync_fail_at=rng.randrange(max(1, appends))
            )
        if point == "group-fsync-kill":
            # Group batches are far sparser than appends; aim low so the
            # crash usually lands on a batch that actually happens.
            return cls(
                seed=seed,
                group_fsync_kill_at=rng.randrange(max(1, appends // 4)),
            )
        if point.startswith("checkpoint-"):
            return cls(
                seed=seed,
                checkpoint_crash_at=rng.randrange(max(1, checkpoints)),
                checkpoint_crash_phase=point.split("-", 1)[1],
            )
        return cls(seed=seed)

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Activation
# ---------------------------------------------------------------------------

_active: FaultPlan | None = None
_spill_writes = 0
_wal_appends = 0
_wal_fsyncs = 0
_group_fsyncs = 0
_checkpoints = 0


def active_plan() -> FaultPlan | None:
    return _active


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide, resetting every point's counter."""
    global _active, _spill_writes, _wal_appends, _wal_fsyncs
    global _group_fsyncs, _checkpoints
    _active = plan
    _spill_writes = 0
    _wal_appends = 0
    _wal_fsyncs = 0
    _group_fsyncs = 0
    _checkpoints = 0


@contextlib.contextmanager
def fault_injection(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the duration of the block."""
    previous = _active
    install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)


# ---------------------------------------------------------------------------
# Injection points (called from the engine)
# ---------------------------------------------------------------------------


def check_spill_write() -> None:
    """Called by :mod:`repro.storage.spill` before every record write."""
    global _spill_writes
    if _active is None or _active.fail_spill_at is None:
        return
    index = _spill_writes
    _spill_writes += 1
    if index == _active.fail_spill_at:
        raise SpillError(
            f"injected spill-write failure at record {index} "
            f"(fault seed {_active.seed})"
        )


def check_wal_append() -> int | None:
    """Called by the WAL writer before each framed append.

    Returns ``None`` to proceed normally, or a byte count: write only
    that many bytes of the frame, then raise :class:`SimulatedCrash`
    (the caller performs the partial write so the torn bytes really hit
    the file first). Raises :class:`SimulatedCrash` directly for a
    kill-before-append."""
    global _wal_appends
    plan = _active
    if plan is None or (
        plan.wal_kill_at is None and plan.wal_short_write_at is None
    ):
        return None
    index = _wal_appends
    _wal_appends += 1
    if plan.wal_kill_at == index:
        raise SimulatedCrash(
            f"injected kill before WAL append {index} (fault seed {plan.seed})"
        )
    if plan.wal_short_write_at == index:
        return max(1, plan.wal_short_write_keep)
    return None


def check_wal_fsync() -> None:
    """Called by the WAL writer before each fsync; the Nth one fails.

    Raises ``OSError`` (what a real failed ``fsync(2)`` surfaces as);
    the writer converts it to a typed WalError after rolling back the
    un-synced frame."""
    global _wal_fsyncs
    plan = _active
    if plan is None or plan.wal_fsync_fail_at is None:
        return
    index = _wal_fsyncs
    _wal_fsyncs += 1
    if index == plan.wal_fsync_fail_at:
        raise OSError(
            f"injected fsync failure at WAL sync {index} "
            f"(fault seed {plan.seed})"
        )


def check_group_fsync() -> None:
    """Called by the group-commit leader *after* a successful batch fsync.

    The Nth batch raises :class:`SimulatedCrash` at exactly the moment
    the batch is durable but none of its waiters has been acknowledged —
    the 'in doubt' window group commit introduces: recovery must surface
    those commits (they are durable), while the chaos harness's acked
    ledger does not contain them."""
    global _group_fsyncs
    plan = _active
    if plan is None or plan.group_fsync_kill_at is None:
        return
    index = _group_fsyncs
    _group_fsyncs += 1
    if index == plan.group_fsync_kill_at:
        raise SimulatedCrash(
            f"injected kill after group-commit fsync {index} "
            f"(fault seed {plan.seed})"
        )


def check_checkpoint(phase: str) -> None:
    """Called by the checkpoint writer at its three crash phases.

    ``phase`` is one of ``temp`` / ``rename`` / ``truncate``; the Nth
    checkpoint whose armed phase is reached dies with
    :class:`SimulatedCrash`. The counter advances once per checkpoint
    (on the ``temp`` phase, which every checkpoint passes first)."""
    global _checkpoints
    plan = _active
    if plan is None or plan.checkpoint_crash_at is None:
        return
    if phase == "temp":
        index = _checkpoints
        _checkpoints += 1
    else:
        index = _checkpoints - 1
    if index == plan.checkpoint_crash_at and phase == plan.checkpoint_crash_phase:
        raise SimulatedCrash(
            f"injected crash at checkpoint {index} phase {phase!r} "
            f"(fault seed {plan.seed})"
        )
