"""The catalog: named tables, declared constraints and cached statistics.

The catalog is the engine's notion of a database. It records, besides the
tables themselves:

* **primary keys** — needed by the invariant-grouping rule to know when a
  join preserves group multiplicity;
* **foreign keys** — the paper's Definition 2 requires "every join above n is
  a foreign-key join", and the optimizer asks the catalog whether an equijoin
  column pair is a declared key/foreign-key pair;
* **statistics** — computed lazily, invalidated explicitly, and shared
  by every snapshot of a frozen table version.

**Concurrency and snapshots.** A catalog is shared by every query on a
:class:`~repro.api.Database`, so its structure is versioned and guarded:

* every structural mutation (register/drop/FK) happens under one
  re-entrant ``mutation_lock`` and bumps a monotonically increasing
  ``version``;
* :meth:`snapshot` pins the current version as an immutable
  :class:`CatalogSnapshot` — the table objects are *frozen* (in-place
  mutation raises) and the snapshot refuses DDL, so a query planned and
  executed against it can never observe a torn catalog or half-applied
  write, no matter what concurrent writers do;
* writers use the copy-on-write helpers (:meth:`insert_rows`,
  :meth:`create_index`) which validate fully, clone the frozen version,
  and swap the new version in atomically under the lock; a whole new
  table version goes in through ``register(table, replace=True)``.
  Readers never block on writers and writers never block on readers;
  writers serialize only against each other.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import CatalogError, ConstraintError, WalError
from repro.storage.statistics import TableStatistics, compute_table_statistics
from repro.storage.table import Table
from repro.storage.types import key_function


@dataclass(frozen=True)
class ForeignKey:
    """A declared reference: child.columns -> parent.columns (same arity)."""

    child_table: str
    child_columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.child_columns) != len(self.parent_columns):
            raise CatalogError(
                "foreign key column lists must have equal length: "
                f"{self.child_columns} vs {self.parent_columns}"
            )


@dataclass
class _TxnState:
    """The rollback basis of an in-flight transaction.

    Captured at ``begin`` after freezing every table (writers then
    copy-on-write, so these objects never change underneath us); restored
    wholesale on rollback or on a failed commit."""

    txn_id: int
    owner: int
    tables: dict[str, Table]
    foreign_keys: list[ForeignKey]
    statistics: dict[str, TableStatistics]
    begin_version: int


class Catalog:
    """A mutable collection of tables with constraints and statistics."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._foreign_keys: list[ForeignKey] = []
        self._statistics: dict[str, TableStatistics] = {}
        #: Serializes structural mutation and copy-on-write swaps.
        #: Re-entrant so a write helper can call ``table()`` internally.
        self.mutation_lock = threading.RLock()
        #: Held from ``begin_transaction`` until its terminator by the
        #: owning thread; every mutation takes it first (ordering:
        #: gate → ``mutation_lock``), so writers from other threads
        #: queue behind an open transaction instead of interleaving
        #: with it — there is exactly one transaction at a time, which
        #: is what makes the WAL's begin/terminator bracketing flat.
        self._txn_gate = threading.RLock()
        self._txn: _TxnState | None = None
        self._version = 0
        #: Optional write-ahead log (:mod:`repro.storage.wal`); when
        #: attached, every mutation journals itself *before* applying.
        self._wal = None

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumped by every structural change."""
        return self._version

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def attach_wal(self, wal) -> None:
        """Journal every future mutation to ``wal`` before applying it."""
        with self.mutation_lock:
            self._wal = wal

    def _log(self, kind: str, data_fn) -> int | None:
        """Append one WAL record for the mutation about to apply.

        Called under ``mutation_lock`` *after* the mutation validated and
        *before* any in-memory state changes: if the append fails (typed
        :class:`~repro.errors.WalError`) or the process 'dies' at an
        armed crash point, the caller's state is untouched — the durable
        log and the acknowledged state can never diverge. ``data_fn`` is
        lazy so non-durable catalogs pay nothing for serialization.

        Inside a transaction the record carries the transaction id and is
        *not* a commit point (durability resolves at the terminator);
        autocommit records are commit points and may return a
        group-commit token for :meth:`_wait_durable`.
        """
        if self._wal is None:
            return None
        txn = self._txn
        return self._wal.append(
            self._version + 1,
            kind,
            data_fn(),
            txn=txn.txn_id if txn is not None else None,
            commit_point=txn is None,
        )

    def _wait_durable(self, token: int | None) -> None:
        """Resolve a group-commit token *outside* every lock.

        Must be called after both the transaction gate and the mutation
        lock are released: the whole point of group commit is that
        concurrent committers reach the fsync batcher together, which
        they cannot do while serialized on the catalog's locks.
        """
        if token is not None and self._wal is not None:
            self._wal.wait_durable(token)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    def begin_transaction(self) -> int:
        """Open a transaction; returns its id (the begin record version).

        Takes the transaction gate — held until :meth:`commit_transaction`
        or :meth:`rollback_transaction` — so every other writer thread
        queues behind this transaction. The begin record consumes a
        catalog version (versions never rewind, even on rollback: the
        plan cache keys on version, so a rewound counter could alias a
        stale cached plan onto a different catalog state).
        """
        self._txn_gate.acquire()
        try:
            with self.mutation_lock:
                if self._txn is not None:
                    raise CatalogError(
                        "a transaction is already active; nested "
                        "transactions are not supported"
                    )
                txn_id = self._version + 1
                for table in self._tables.values():
                    table.freeze()
                if self._wal is not None:
                    self._wal.append(
                        txn_id, "txn_begin", {}, txn=txn_id,
                        commit_point=False,
                    )
                self._txn = _TxnState(
                    txn_id=txn_id,
                    owner=threading.get_ident(),
                    tables=dict(self._tables),
                    foreign_keys=list(self._foreign_keys),
                    statistics=dict(self._statistics),
                    begin_version=txn_id,
                )
                self._version = txn_id
                return txn_id
        except BaseException:
            self._txn_gate.release()
            raise

    def _require_owned_txn(self, action: str) -> None:
        txn = self._txn
        if txn is None:
            raise CatalogError(f"no active transaction to {action}")
        if txn.owner != threading.get_ident():
            raise CatalogError(
                f"cannot {action}: the active transaction belongs to "
                "another thread"
            )

    def _restore_txn_state(self, txn: _TxnState) -> None:
        self._tables = txn.tables
        self._foreign_keys = txn.foreign_keys
        self._statistics = txn.statistics

    def _terminate_txn(self, kind: str, restore: bool) -> int | None:
        """Append a terminator and close the transaction; returns the
        group-commit token.

        A terminator append that fails is unrecoverable for this writer:
        the transaction's operation records are already durable, so if
        anything *later* became durable the dangling bracket would read
        as mid-log corruption. Poisoning the WAL guarantees nothing
        later does — the unterminated transaction stays the durable
        tail, which recovery rolls back — and the in-memory catalog is
        restored to the pre-transaction state to match. The version
        still advances past the failed terminator (never rewinds).
        """
        token = None
        with self.mutation_lock:
            txn = self._txn
            terminator_version = self._version + 1
            if self._wal is not None:
                try:
                    token = self._wal.append(
                        terminator_version, kind, {}, txn=txn.txn_id,
                        commit_point=True,
                    )
                except WalError as exc:
                    self._restore_txn_state(txn)
                    self._version = terminator_version
                    self._txn = None
                    self._wal.poison(
                        f"transaction {txn.txn_id} {kind} record failed "
                        f"to append: {exc}"
                    )
                    raise
            if restore:
                self._restore_txn_state(txn)
            self._version = terminator_version
            self._txn = None
        return token

    def commit_transaction(self) -> None:
        """Make the open transaction's operations durable, atomically.

        The commit record is the commit point: once its append (and
        fsync, per policy) succeeds the whole transaction is
        acknowledged; if the process dies any earlier, recovery rolls
        the store back to the pre-transaction state. Raises
        :class:`~repro.errors.WalError` when durability fails — the
        in-memory state is then rolled back too and the WAL poisoned.
        """
        self._require_owned_txn("commit")
        try:
            token = self._terminate_txn("txn_commit", restore=False)
        finally:
            self._txn_gate.release()
        self._wait_durable(token)

    def rollback_transaction(self) -> None:
        """Discard the open transaction's operations.

        Restores the pre-transaction tables, foreign keys, and cached
        statistics; the version counter keeps every consumed version
        (the abort record replays as a pure version bump).
        """
        self._require_owned_txn("rollback")
        try:
            token = self._terminate_txn("txn_abort", restore=True)
        finally:
            self._txn_gate.release()
        self._wait_durable(token)

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------

    def register(self, table: Table, replace: bool = False) -> Table:
        key = table.name.lower()
        token = None
        with self._txn_gate:
            with self.mutation_lock:
                if key in self._tables and not replace:
                    raise CatalogError(f"table {table.name!r} already exists")
                if self._wal is not None:
                    from repro.storage.wal import table_state

                    token = self._log(
                        "create_table",
                        lambda: {
                            "table": table_state(table), "replace": replace,
                        },
                    )
                self._tables[key] = table
                self._statistics.pop(key, None)
                self._version += 1
        self._wait_durable(token)
        return table

    def drop(self, name: str) -> None:
        key = name.lower()
        token = None
        with self._txn_gate:
            with self.mutation_lock:
                if key not in self._tables:
                    raise CatalogError(f"cannot drop unknown table {name!r}")
                token = self._log("drop_table", lambda: {"name": name})
                del self._tables[key]
                self._statistics.pop(key, None)
                self._foreign_keys = [
                    fk
                    for fk in self._foreign_keys
                    if fk.child_table.lower() != key
                    and fk.parent_table.lower() != key
                ]
                self._version += 1
        self._wait_durable(token)

    def table(self, name: str) -> Table:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(
                f"unknown table {name!r}; known: {sorted(self._tables)}"
            )
        return self._tables[key]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(t.name for t in self._tables.values())

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __iter__(self) -> Iterable[Table]:
        return iter(self._tables.values())

    # ------------------------------------------------------------------
    # Snapshots and copy-on-write writes
    # ------------------------------------------------------------------

    def snapshot(self) -> "CatalogSnapshot":
        """Pin the current version: an immutable catalog view.

        Freezes every current table version (cheap — a flag per table;
        writers copy-on-write from then on) and copies the name → table
        map, FK list, and statistics cache, so later DDL/DML on this
        catalog is invisible to the snapshot and vice versa.

        While a transaction is open, snapshots pin the *pre-transaction*
        state (the rollback basis captured at begin): uncommitted
        operations are never visible to readers, and the reported
        version is one the plan cache can safely key on — it names a
        committed state that a rollback cannot invalidate.
        """
        with self.mutation_lock:
            txn = self._txn
            if txn is not None:
                return CatalogSnapshot(
                    tables=dict(txn.tables),
                    foreign_keys=list(txn.foreign_keys),
                    statistics=dict(txn.statistics),
                    version=txn.begin_version - 1,
                )
            for table in self._tables.values():
                table.freeze()
            return CatalogSnapshot(
                tables=dict(self._tables),
                foreign_keys=list(self._foreign_keys),
                statistics=dict(self._statistics),
                version=self._version,
            )

    def insert_rows(
        self, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        """Atomically append ``rows`` to a table, copy-on-write.

        Every row is validated *before* any state changes, so a width or
        type error inserts nothing; if the current version is frozen (a
        snapshot pinned it), a clone receives the rows and is swapped in
        under the mutation lock — concurrent snapshot readers keep seeing
        the old version, never a partially extended row list.
        """
        token = None
        with self._txn_gate:
            with self.mutation_lock:
                current = self.table(table_name)
                validated = [current.validate_row(row) for row in rows]
                token = self._log(
                    "insert_rows",
                    lambda: {"table": current.name, "rows": validated},
                )
                target = current.clone() if current.frozen else current
                target.rows.extend(validated)
                target._invalidate_indexes()
                if target is not current:
                    self._tables[current.name.lower()] = target
                self._statistics.pop(current.name.lower(), None)
                self._version += 1
        self._wait_durable(token)
        return len(validated)

    def create_index(self, table_name: str, columns: Sequence[str]):
        """Create (or return the existing) index on a table's columns.

        The catalog-level index DDL path: unlike calling
        :meth:`Table.create_index` directly, this journals the DDL to an
        attached WAL and bumps the catalog version, and it respects
        copy-on-write — a frozen (snapshotted) table version is cloned
        rather than mutated under concurrent readers.
        """
        token = None
        with self._txn_gate:
            with self.mutation_lock:
                table = self.table(table_name)
                key = tuple(table.schema.column(c).name for c in columns)
                existing = table.indexes.get(key)
                if existing is not None:
                    return existing
                token = self._log(
                    "create_index",
                    lambda: {"table": table.name, "columns": list(key)},
                )
                if table.frozen:
                    target = table.clone()
                    index = target.create_index(key)
                    self._tables[table.name.lower()] = target
                else:
                    index = table.create_index(key)
                self._version += 1
        self._wait_durable(token)
        return index

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------

    def add_foreign_key(
        self,
        child_table: str,
        child_columns: Sequence[str],
        parent_table: str,
        parent_columns: Sequence[str],
    ) -> ForeignKey:
        """Declare a foreign key; tables and columns must already exist."""
        token = None
        with self._txn_gate:
            with self.mutation_lock:
                child = self.table(child_table)
                parent = self.table(parent_table)
                for col in child_columns:
                    child.schema.index_of(col)
                for col in parent_columns:
                    parent.schema.index_of(col)
                fk = ForeignKey(
                    child.name, tuple(child_columns),
                    parent.name, tuple(parent_columns),
                )
                token = self._log(
                    "add_foreign_key",
                    lambda: {
                        "child_table": fk.child_table,
                        "child_columns": list(fk.child_columns),
                        "parent_table": fk.parent_table,
                        "parent_columns": list(fk.parent_columns),
                    },
                )
                self._foreign_keys.append(fk)
                self._version += 1
        self._wait_durable(token)
        return fk

    def foreign_keys(self) -> tuple[ForeignKey, ...]:
        return tuple(self._foreign_keys)

    def find_foreign_key(
        self,
        child_table: str,
        child_columns: Sequence[str],
        parent_table: str,
        parent_columns: Sequence[str],
    ) -> ForeignKey | None:
        """The declared FK matching this (possibly reordered) column pairing.

        The pairing matters: (child.a -> parent.x, child.b -> parent.y) is
        matched as a set of column *pairs*, independent of order.
        """
        wanted = set(zip(child_columns, parent_columns))
        for fk in self._foreign_keys:
            if (
                fk.child_table.lower() == child_table.lower()
                and fk.parent_table.lower() == parent_table.lower()
                and set(zip(fk.child_columns, fk.parent_columns)) == wanted
            ):
                return fk
        return None

    def is_primary_key(self, table_name: str, columns: Sequence[str]) -> bool:
        table = self.table(table_name)
        if table.primary_key is None:
            return False
        return set(table.primary_key) == set(columns)

    def validate_constraints(self) -> None:
        """Check every declared PK and FK against the data.

        Used by loaders and property tests; raises :class:`ConstraintError`
        on the first violation found.
        """
        for table in self._tables.values():
            table.check_primary_key()
        for fk in self._foreign_keys:
            self._validate_foreign_key(fk)

    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        parent = self.table(fk.parent_table)
        child = self.table(fk.child_table)
        parent_positions = parent.schema.indices_of(fk.parent_columns)
        child_positions = child.schema.indices_of(fk.child_columns)
        parent_key = key_function(parent.schema.types(parent_positions))
        child_key = key_function(child.schema.types(child_positions))
        parent_keys = {
            parent_key(tuple(row[i] for i in parent_positions))
            for row in parent.rows
        }
        for row in child.rows:
            values = tuple(row[i] for i in child_positions)
            if any(v is None for v in values):
                continue  # SQL FK semantics: NULLs are exempt
            if child_key(values) not in parent_keys:
                raise ConstraintError(
                    f"foreign key violation: {fk.child_table}{values!r} has no "
                    f"parent in {fk.parent_table}({', '.join(fk.parent_columns)})"
                )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def statistics(self, name: str) -> TableStatistics:
        """Statistics for a table, computed on first use and cached.

        Computation happens outside the mutation lock (it scans the
        table), so two racing readers may both compute; the redundant
        result is identical and the last store wins.

        Statistics of a table version that was already frozen when the
        scan began are also kept on the version itself
        (``Table.frozen_statistics``), so every snapshot and the live
        catalog holding that version share them: a service that reads
        through a fresh snapshot per request scans each version once, not
        once per request.
        """
        key = name.lower()
        stats = self._statistics.get(key)
        if stats is None:
            table = self.table(name)
            stats = table.frozen_statistics
            if stats is None:
                # Read before the scan: an unfrozen table may still grow
                # in place while it runs.
                frozen = table.frozen
                stats = compute_table_statistics(table)
                if frozen:
                    table.frozen_statistics = stats
            self._statistics[key] = stats
        return stats

    def invalidate_statistics(self, name: str | None = None) -> None:
        """Drop one table's cached statistics (or every table's), here and
        on the table version, so the next use rescans."""
        keys = list(self._tables) if name is None else [name.lower()]
        for key in keys:
            self._statistics.pop(key, None)
            if key in self._tables:
                self._tables[key].frozen_statistics = None


class CatalogSnapshot(Catalog):
    """A read-only catalog pinned at one version.

    Shares the (frozen) table objects with the live catalog at snapshot
    time; structural mutation raises :class:`CatalogError`. Statistics
    still compute lazily into the snapshot's own cache and onto the
    frozen table versions it shares — a snapshot's tables never change,
    so its cached statistics never go stale.
    """

    def __init__(
        self,
        tables: dict[str, Table],
        foreign_keys: list[ForeignKey],
        statistics: dict[str, TableStatistics],
        version: int,
    ):
        super().__init__()
        self._tables = tables
        self._foreign_keys = foreign_keys
        self._statistics = statistics
        self._version = version

    def _read_only(self, action: str) -> CatalogError:
        return CatalogError(
            f"cannot {action}: this catalog is a read-only snapshot "
            f"(version {self._version}); apply writes to the live catalog"
        )

    def register(self, table: Table, replace: bool = False) -> Table:
        raise self._read_only(f"register table {table.name!r}")

    def drop(self, name: str) -> None:
        raise self._read_only(f"drop table {name!r}")

    def add_foreign_key(self, *args, **kwargs) -> ForeignKey:
        raise self._read_only("add a foreign key")

    def insert_rows(self, table_name: str, rows) -> int:
        raise self._read_only(f"insert into table {table_name!r}")

    def create_index(self, table_name: str, columns):
        raise self._read_only(f"create an index on table {table_name!r}")

    def begin_transaction(self) -> int:
        raise self._read_only("begin a transaction")
