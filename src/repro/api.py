"""High-level public API: the :class:`Database` facade.

Ties the whole stack together: catalog + SQL front end + optimizer +
executor. This is what the examples and benchmarks use::

    db = Database()
    db.create_table("part", [("p_partkey", DataType.INTEGER), ...],
                    rows, primary_key=["p_partkey"])
    result = db.sql("select gapply(select avg(p_retailprice) from g) "
                    "from part group by p_brand : g")
    print(result.pretty())
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.algebra.operators import LogicalOperator
from repro.errors import (
    BindError,
    CatalogError,
    PlanError,
    ReproError,
    RowBudgetExceeded,
    WalError,
)
from repro.execution.base import PhysicalOperator
from repro.execution.governor import Budget, Governor
from repro.execution.context import Counters, ExecutionContext
from repro.observe.explain import Explanation
from repro.observe.metrics import MetricsRegistry
from repro.observe.trace import Tracer
from repro.execution.vector.compiler import VectorPlan, compile_plan
from repro.optimizer.engine import OptimizationReport, Optimizer
from repro.optimizer.plancache import (
    CachedPlan,
    PlanCache,
    PlanKey,
    options_tag,
    substitute_parameters,
    text_digest,
)
from repro.optimizer.planner import Planner, PlannerOptions
from repro.sql.ast import AstExplain, AstQuery
from repro.sql.binder import Binder
from repro.sql.normalize import (
    bind_ast_parameters,
    count_parameters,
    parameterize,
    seed_parameters,
    type_signature,
)
from repro.sql.parser import parse, parse_statement
from repro.sql.printer import print_statement
from repro.storage import wal as walmod
from repro.storage.catalog import Catalog
from repro.storage.schema import Schema
from repro.storage.table import Table, table_from_rows
from repro.storage.types import DataType
from repro.xmlpub.stream import DEFAULT_CHUNK_BYTES, XmlChunkStream
from repro.xmlpub.translate import Translator
from repro.xmlpub.view import XmlView


@dataclass
class QueryResult:
    """Materialized result of one query execution."""

    schema: Schema
    rows: list[tuple]
    counters: Counters
    logical_plan: LogicalOperator
    physical_plan: PhysicalOperator
    optimization: OptimizationReport | None = None
    metrics: MetricsRegistry | None = None
    #: Plan-cache outcome for this run (``source`` is "hit"/"miss", plus
    #: key digest and parameter count); None when the run bypassed the
    #: cache.
    plan_cache: dict[str, Any] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_table(self, name: str = "result") -> Table:
        table = Table(name, self.schema)
        table.rows = list(self.rows)
        return table

    def to_dicts(self) -> list[dict[str, Any]]:
        names = self.schema.qualified_names()
        return [dict(zip(names, row)) for row in self.rows]

    def pretty(self, limit: int = 20) -> str:
        return self.to_table().pretty(limit)


@dataclass(frozen=True)
class _RunOptions:
    """One run's keyword options, folded once by :func:`_resolve_options`.

    The fields are the option keywords of :meth:`Database.sql`; every other
    entry point accepts a subset (a signature test holds them to it), so a
    new knob is added here or nowhere. After folding, ``planner_options``
    is never ``None``, ``explain`` is ``None``/``"plan"``/``"analyze"``,
    and ``governor`` is the prebuilt one or one built from the budget knobs.
    """

    optimize: bool = True
    planner_options: PlannerOptions | None = None
    explain: bool | str | None = None
    collect_metrics: bool = False
    timeout: float | None = None
    memory_budget: int | None = None
    max_rows: int | None = None
    governor: Governor | None = None
    use_plan_cache: bool | None = None


@lru_cache(maxsize=None)
def _accepted_options(entry: Callable[..., Any]) -> frozenset[str]:
    """The run options a public entry point takes: the parameters of its
    signature that are :class:`_RunOptions` fields."""
    return frozenset(
        inspect.signature(entry).parameters.keys()
        & _RunOptions.__dataclass_fields__.keys()
    )


def _own_options(entry: Callable[..., Any], arguments: dict[str, Any]) -> _RunOptions:
    """Resolve public method ``entry``'s own options out of its ``locals()``,
    so its signature is the only place that spells them. Only signature
    names are read: call it before reassigning a parameter, nothing more."""
    own = {name: arguments[name] for name in _accepted_options(entry)}
    return _resolve_options(entry.__qualname__, entry, **own)


def _resolve_options(
    caller: str, entry: Callable[..., Any], **raw: Any
) -> _RunOptions:
    """Validate and fold option keywords, once per call.

    ``entry`` is the :class:`Database` method whose signature says which
    options the call may carry; any other keyword — a typo, or another
    entry point's option — is a ``TypeError`` naming ``caller``, raised
    before any work (``Prepared.execute``, the service: before admission).
    """
    unknown = raw.keys() - _accepted_options(entry)
    if unknown:
        raise TypeError(
            f"{caller}() got an unexpected keyword argument {min(unknown)!r}"
        )
    options = _RunOptions(**raw)
    if options.explain not in (None, False, True, "plan", "analyze"):
        raise PlanError(
            "explain must be True, 'plan' or 'analyze', "
            f"got {options.explain!r}"
        )
    if options.use_plan_cache and not options.optimize:
        raise PlanError(
            "use_plan_cache=True demands the plan cache, which holds "
            "optimized plans only; it cannot be combined with optimize=False"
        )
    planner_options = options.planner_options or PlannerOptions()
    budget = Budget(
        timeout=options.timeout,
        memory_cells=options.memory_budget,
        max_rows=options.max_rows,
    )
    governor = options.governor
    if not budget.unlimited:
        if governor is not None:
            raise PlanError(
                "pass either a prebuilt governor or budget knobs, not both"
            )
        governor = Governor(budget)
    return replace(
        options,
        planner_options=planner_options,
        explain="plan" if options.explain is True else options.explain or None,
        governor=governor,
    )


@dataclass(frozen=True)
class _Planned:
    """A statement down to its logical plan, with where the plan came from."""

    logical: LogicalOperator
    report: OptimizationReport | None = None
    #: Plan-cache outcome (``QueryResult.plan_cache``); None on a bypass.
    cache_info: dict[str, Any] | None = None


@dataclass(frozen=True)
class _Run:
    """One prepared execution, complete: what :meth:`Database._prepare`
    hands to the materializing and streaming tails."""

    options: _RunOptions
    sql_text: str | None
    planned: _Planned
    #: The lowered plan compiled to batch nodes, with the compiler's notes
    #: on which subtrees stayed on the row iterators.
    compiled: VectorPlan
    context: ExecutionContext


class Transaction:
    """A multi-statement transaction handle from :meth:`Database.begin`.

    All writes on the owning database between ``begin()`` and
    :meth:`commit` belong to this transaction: they journal to the WAL
    under one transaction id and recovery applies them atomically — a
    crash before the durable commit record rolls the store back to the
    state this transaction began from. :meth:`rollback` discards the
    writes immediately (in memory and, via the abort record, in the
    durable history).

    Context-manager form commits on clean exit and rolls back when the
    block raises::

        with db.begin():
            db.create_table("part", ...)
            db.catalog.insert_rows("part", rows)
            db.create_index("part", ["p_partkey"])
        # all durable here, or none of it

    The handle is single-use: after commit or rollback every further
    call raises :class:`~repro.errors.CatalogError`. If the commit
    itself fails durability (:class:`~repro.errors.WalError`), the
    catalog is rolled back and the handle ends in state ``"failed"``.
    """

    def __init__(self, database: "Database"):
        self._database = database
        self.state = "active"

    def _require_active(self, action: str) -> None:
        if self.state != "active":
            raise CatalogError(
                f"cannot {action}: transaction already {self.state}"
            )

    def commit(self) -> None:
        """Durably commit every operation made since ``begin()``."""
        self._require_active("commit")
        try:
            self._database.catalog.commit_transaction()
        except WalError:
            self.state = "failed"
            raise
        self.state = "committed"

    def rollback(self) -> None:
        """Discard every operation made since ``begin()``."""
        self._require_active("rollback")
        try:
            self._database.catalog.rollback_transaction()
        except WalError:
            self.state = "failed"
            raise
        self.state = "rolled back"

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.state != "active":
            return  # committed/rolled back explicitly inside the block
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


class Database:
    """An in-memory database with GApply support end to end.

    Thread-safety contract: reads (``sql``/``execute``/``plan``) are safe
    to issue from any number of threads — per-query state (contexts,
    counters, metrics registries, tracers, governors) is built fresh per
    call. Concurrent *writes* racing reads on the same catalog need
    snapshot isolation: route them through :class:`repro.serve.Service`,
    or take :meth:`snapshot` yourself before reading while another thread
    mutates.
    """

    #: Sentinel: "build a fresh default PlanCache" (vs. None = disabled).
    _DEFAULT_CACHE: Any = object()

    def __init__(
        self,
        catalog: Catalog | None = None,
        plan_cache: "PlanCache | None" = _DEFAULT_CACHE,
    ):
        self.catalog = catalog or Catalog()
        if plan_cache is Database._DEFAULT_CACHE:
            plan_cache = PlanCache()
        self.plan_cache = plan_cache
        #: The write-ahead log behind :meth:`open`; ``None`` for plain
        #: in-memory databases.
        self.wal = None

    @classmethod
    def open(
        cls,
        path: str,
        fsync: str = "always",
        segment_bytes: int = walmod.DEFAULT_SEGMENT_BYTES,
        group_commit_delay: float = walmod.DEFAULT_GROUP_COMMIT_DELAY,
        archive: bool = False,
        recover_to: int | None = None,
        plan_cache: "PlanCache | None" = _DEFAULT_CACHE,
    ) -> "Database":
        """Open (or create) a durable database rooted at directory ``path``.

        Recovery first: load the newest valid checkpoint, replay the
        write-ahead log on top of it (truncating a torn tail on the
        newest segment and rolling back an unterminated tail
        transaction; raising :class:`~repro.errors.WalCorruptionError`
        on mid-log damage), then attach a writer so every subsequent
        catalog mutation journals itself before applying. ``fsync`` is
        one of ``"always"`` / ``"group"`` / ``"never"``
        (:data:`repro.storage.wal.FSYNC_POLICIES`);
        ``group_commit_delay`` caps how long a group-commit leader waits
        for followers. ``archive=True`` moves superseded segments and
        checkpoints into ``<path>/archive/`` instead of deleting them:
        point-in-time recovery then reaches past the last checkpoint.

        ``recover_to=version`` is **point-in-time recovery**: return a
        read-only database pinned at exactly that committed version,
        rebuilt from the archived chain, without modifying the store or
        attaching a writer. Raises
        :class:`~repro.errors.PointInTimeUnavailable` (typed) when the
        version is not a reachable committed state.
        """
        if recover_to is not None:
            catalog = walmod.recover_point_in_time(path, recover_to)
            return cls(catalog, plan_cache=plan_cache)
        catalog, replayed = walmod.recover(path)
        log = walmod.WriteAheadLog(
            path,
            fsync=fsync,
            segment_bytes=segment_bytes,
            group_commit_delay=group_commit_delay,
            archive=archive,
        )
        log.recoveries = 1
        log.replayed_records = replayed
        catalog.attach_wal(log)
        database = cls(catalog, plan_cache=plan_cache)
        database.wal = log
        return database

    def begin(self) -> "Transaction":
        """Open a multi-statement transaction on this database.

        Every catalog mutation until :meth:`Transaction.commit` journals
        under one transaction id; recovery replays all of them or none.
        Usable as a context manager: a clean exit commits, an exception
        rolls back. One transaction at a time — concurrent writers queue
        behind it (see ``Catalog._txn_gate``). Works on non-durable
        databases too (rollback is in-memory-only there).
        """
        self.catalog.begin_transaction()
        return Transaction(self)

    def checkpoint(self) -> None:
        """Write one durable full image of the current catalog and
        retire (delete or archive) every older checkpoint and segment.
        No-op without a WAL; refused inside an open transaction (the
        checkpoint would capture the pre-transaction snapshot while
        claiming the in-transaction version)."""
        if self.wal is None:
            return
        with self.catalog.mutation_lock:
            if self.catalog.in_transaction:
                raise WalError(
                    "cannot checkpoint inside an open transaction; "
                    "commit or roll back first"
                )
            state = walmod.catalog_state(self.catalog.snapshot())
            self.wal.write_checkpoint(state)

    def close(self) -> None:
        """Flush and close the WAL (if any). The database object stays
        queryable in memory; only durability ends."""
        if self.wal is not None:
            self.wal.close()

    def create_index(self, table_name: str, columns: Sequence[str]):
        """Catalog-level index DDL (journaled when the database is
        durable; see :meth:`repro.storage.catalog.Catalog.create_index`)."""
        return self.catalog.create_index(table_name, columns)

    def snapshot(self) -> "Database":
        """A read-only Database pinned to the catalog's current version.

        Queries against the snapshot see a frozen, immutable state no
        matter what concurrent writers do to this database afterwards
        (copy-on-write versioning; see
        :meth:`repro.storage.catalog.Catalog.snapshot`). DDL and inserts
        on the snapshot raise :class:`~repro.errors.CatalogError`.

        The snapshot *shares* this database's plan cache: entries are
        keyed by catalog version, so a snapshot pinned at version V only
        ever sees plans built against V, and plans it builds are reused
        by every other snapshot at the same version.
        """
        return Database(self.catalog.snapshot(), plan_cache=self.plan_cache)

    def prepare(self, text: str) -> "Prepared":
        """Parse + normalize once, execute many times.

        Two flavors of parameterization:

        * Explicit markers — ``db.prepare("... where p_size < $1")`` —
          require a full ``params`` vector on every
          :meth:`Prepared.execute`.
        * Automatic extraction — prepare any literal query and the
          normalizer lifts its literals into parameters, in left-to-right
          order; ``execute()`` with no arguments re-runs the original
          literals, ``execute([...])`` rebinds them.

        Execution goes through the shared plan cache, so repeated
        executions (and plain ``db.sql`` calls of the same query shape)
        skip bind + optimize after the first.
        """
        return Prepared(self, text)

    # ------------------------------------------------------------------
    # DDL-ish
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, DataType]],
        rows: Iterable[Sequence[Any]] = (),
        primary_key: Sequence[str] | None = None,
    ) -> Table:
        table = table_from_rows(name, columns, rows, primary_key)
        return self.catalog.register(table)

    def add_foreign_key(
        self,
        child_table: str,
        child_columns: Sequence[str],
        parent_table: str,
        parent_columns: Sequence[str],
    ) -> None:
        self.catalog.add_foreign_key(
            child_table, child_columns, parent_table, parent_columns
        )

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    def plan(self, sql: str) -> LogicalOperator:
        """Parse + bind only: the initial logical plan for SQL text."""
        return Binder(self.catalog).bind(parse(sql))

    def sql(
        self,
        text: str,
        optimize: bool = True,
        planner_options: PlannerOptions | None = None,
        explain: bool | str | None = None,
        collect_metrics: bool = False,
        timeout: float | None = None,
        memory_budget: int | None = None,
        max_rows: int | None = None,
        governor: Governor | None = None,
        params: Sequence[Any] | None = None,
        use_plan_cache: bool | None = None,
    ) -> QueryResult | Explanation:
        """Run SQL text end to end and materialize the result.

        ``timeout`` (wall-clock seconds), ``memory_budget`` (buffered
        cells — the unit of ``Counters.buffered_cells``) and ``max_rows``
        (output rows) attach a :class:`~repro.execution.governor.Governor`
        to the run. Violations raise typed errors from :mod:`repro.errors`
        (``TimeoutExceeded``, ``MemoryBudgetExceeded``,
        ``RowBudgetExceeded``) carrying this SQL text; under a memory
        budget, GApply's partition phase spills to disk instead of
        failing. Alternatively pass a prebuilt ``governor`` — e.g. the
        query service's, whose clock already started ticking at
        submission — which the budget knobs must not accompany.

        ``EXPLAIN [ANALYZE] <query>`` statements — or the equivalent
        ``explain=True`` / ``explain="analyze"`` keyword — return an
        :class:`Explanation` instead of a :class:`QueryResult`. Plain
        queries with ``collect_metrics`` return a :class:`QueryResult`
        whose ``metrics`` field carries the per-operator registry.

        ``params`` binds the values for explicit ``$1``/``$2`` parameter
        markers in the text (positional, ``$1`` first). Optimized runs
        consult the per-database plan cache (see
        :mod:`repro.optimizer.plancache`) keyed by normalized query
        shape; ``use_plan_cache=False`` opts a single call out, and
        ``use_plan_cache=True`` demands the cache (an error when this
        database was built with ``plan_cache=None``, or when the call
        also passes ``optimize=False`` — only optimized plans are cached).
        """
        options = _own_options(Database.sql, locals())
        return self._run_statement(text, params, options)

    def _run_statement(
        self,
        text: str,
        params: Sequence[Any] | None,
        options: _RunOptions,
        statement: "AstQuery | AstExplain | None" = None,
    ) -> QueryResult | Explanation:
        """Shared execution path behind :meth:`sql`, the service (which
        resolves the options itself, before admission) and
        :class:`Prepared` (which passes its pre-parsed ``statement``)."""
        if statement is None:
            statement = parse_statement(text)
        query = statement
        if isinstance(statement, AstExplain):
            query = statement.query
            explain = "analyze" if statement.analyze else options.explain or "plan"
            options = replace(options, explain=explain)
        return self._materialize(self._prepare(query, text, params, options))

    # -- the request pipeline: prepare, then materialize or stream ---------

    def _prepare(
        self,
        source: AstQuery | LogicalOperator | None,
        sql_text: str | None,
        params: Sequence[Any] | None,
        options: _RunOptions,
    ) -> _Run:
        """Everything between resolved options and the first row.

        A query — parsed already, or ``None`` to parse ``sql_text`` here —
        goes through parameter handling and the plan cache (lookup,
        miss-build, or bypass) to a logical plan; an already-bound plan
        (:meth:`execute`) joins at the optimizer. Either way the plan is
        then lowered and compiled. Every error leaves carrying the SQL it
        happened in (first writer wins, so deeper context is preserved).
        """
        try:
            if isinstance(source, LogicalOperator):
                planned = _Planned(*self._optimized(source, options))
            else:
                planned = self._plan_query(
                    parse(sql_text) if source is None else source,
                    params, options,
                )
            planner_options = options.planner_options
            # Estimated cardinalities are the point of EXPLAIN output.
            physical = Planner(
                self.catalog, planner_options, for_explain=bool(options.explain)
            ).plan(planned.logical)
            compiled = compile_plan(physical, planner_options.vector_batch_size)
        except ReproError as error:
            raise error.add_context(sql=sql_text)
        analyze = options.explain == "analyze"
        registry = None
        if analyze or options.collect_metrics:
            registry = MetricsRegistry()
            registry.register_plan(physical)
        tracer = Tracer() if analyze else None
        context = ExecutionContext(
            metrics=registry, tracer=tracer, governor=options.governor
        )
        return _Run(options, sql_text, planned, compiled, context)

    def _plan_query(
        self,
        query: AstQuery,
        params: Sequence[Any] | None,
        options: _RunOptions,
    ) -> _Planned:
        """Parameter handling and the plan cache: query AST to logical plan."""
        marker_count = count_parameters(query)
        if not marker_count and params is not None:
            raise BindError(
                "params were given but the query has no $N parameter markers"
            )
        values = tuple(params or ())
        if len(values) != marker_count:
            raise BindError(
                f"query has {marker_count} parameter marker(s) but "
                f"{len(values)} value(s) were bound; pass params=[...]"
            )
        cache = self.plan_cache
        if options.use_plan_cache and cache is None:
            raise PlanError(
                "use_plan_cache=True but this Database was built with "
                "plan_cache=None"
            )
        if cache is None or not options.optimize or options.use_plan_cache is False:
            if cache is not None:
                cache.record_bypass()
            if marker_count:
                query = bind_ast_parameters(query, values)
            return _Planned(*self._planned(query, options))

        if marker_count:
            param_query = seed_parameters(query, values)
        else:
            param_query, values = parameterize(query)
        key = PlanKey(
            digest=text_digest(print_statement(param_query)),
            type_tags=type_signature(values),
            catalog_version=self.catalog.version,
            options_tag=options_tag(options.planner_options),
        )
        entry = cache.lookup(key)
        source = "hit"
        if entry is None:
            source = "miss"
            # The optimizer estimates with the seeds of ``param_query``.
            template, report = self._planned(param_query, options)
            entry = cache.store(CachedPlan(key, template, report))
        logical = substitute_parameters(entry.template, values)
        info = {"source": source, "params": len(values), "key": key.digest[:12]}
        return _Planned(
            logical,
            # The report the caller sees describes *this* execution: same
            # provenance (costs, rule trace — identical by seed-parity),
            # but ``best`` is the substituted plan, not the marker template.
            report=replace(entry.report, best=logical),
            cache_info=info,
        )

    def _planned(
        self, query: AstQuery, options: _RunOptions
    ) -> tuple[LogicalOperator, OptimizationReport | None]:
        """The one bind for execution: cache misses and uncached runs
        both turn their AST into a plan here."""
        return self._optimized(Binder(self.catalog).bind(query), options)

    def _optimized(
        self, logical: LogicalOperator, options: _RunOptions
    ) -> tuple[LogicalOperator, OptimizationReport | None]:
        """The one optimizer call, shared by everything :meth:`_planned`
        serves plus :meth:`execute` and :meth:`explain`."""
        if not options.optimize:
            return logical, None
        report = self._optimizer(options.planner_options).optimize(logical)
        return report.best, report

    def _rows(self, run: _Run) -> Iterator[list[tuple]]:
        """The governed root loop under every run: the result, one root
        batch of rows at a time.

        Enforces ``max_rows`` at the root — the batch that crosses the
        budget is cut there, so exactly the first ``max_rows`` rows are
        handed on before the typed error — and makes sure every engine
        error leaves carrying its SQL. The finally clause closes the
        operator tree even when the consumer abandons the stream
        mid-flight (GeneratorExit travels through ``yield``).
        """
        governor = run.options.governor
        source = run.compiled.root.batches(run.context)
        try:
            for batch in source:
                rows = batch.rows()
                if governor is not None:
                    try:
                        governor.tick_output(len(rows))
                    except RowBudgetExceeded:
                        over = governor.output_rows - governor.budget.max_rows
                        if over < len(rows):
                            yield rows[: len(rows) - over]
                        raise
                yield rows
        except ReproError as error:
            raise error.add_context(sql=run.sql_text)
        finally:
            source.close()

    def _materialize(self, run: _Run) -> QueryResult | Explanation:
        """The materializing tail: drain the run into a result object."""
        options, planned = run.options, run.planned
        physical, fallbacks = run.compiled.physical, run.compiled.fallbacks
        if options.explain == "plan":
            return Explanation(
                sql=run.sql_text, analyze=False, physical_plan=physical,
                report=planned.report, plan_cache=planned.cache_info,
                fallbacks=fallbacks,
            )
        context = run.context
        tracer = context.tracer
        span = None if tracer is None else tracer.begin("plan", physical.label())
        rows = list(chain.from_iterable(self._rows(run)))
        if span is not None:
            tracer.end(span, rows_out=len(rows))
        if options.explain == "analyze":
            return Explanation(
                sql=run.sql_text, analyze=True, physical_plan=physical,
                report=planned.report, registry=context.metrics, tracer=tracer,
                rows=rows, schema=physical.schema, counters=context.counters,
                plan_cache=planned.cache_info, fallbacks=fallbacks,
            )
        return QueryResult(
            schema=physical.schema,
            rows=rows,
            counters=context.counters,
            logical_plan=planned.logical,
            physical_plan=physical,
            optimization=planned.report,
            metrics=context.metrics,
            plan_cache=planned.cache_info,
        )

    def execute(
        self,
        logical: LogicalOperator,
        optimize: bool = True,
        planner_options: PlannerOptions | None = None,
        explain: bool | str | None = None,
        collect_metrics: bool = False,
        sql_text: str | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        max_rows: int | None = None,
        governor: Governor | None = None,
    ) -> QueryResult | Explanation:
        """Optimize (optionally), lower, and run a logical plan.

        ``explain``: falsy = run normally; ``True``/``"plan"`` = plan only,
        return an :class:`Explanation`; ``"analyze"`` = run with metrics +
        tracing and return an :class:`Explanation` carrying the results.

        ``timeout``/``memory_budget``/``max_rows`` build a
        :class:`Governor` for the run (see :meth:`sql`); alternatively
        pass a prebuilt ``governor`` — e.g. to hold a cancellation handle
        across threads — which the budget knobs must not accompany.
        """
        options = _own_options(Database.execute, locals())
        return self._materialize(self._prepare(logical, sql_text, None, options))

    def publish(
        self,
        view: XmlView,
        query: str,
        formulation: str = "gapply",
        *,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        encoding: str = "utf-8",
        optimize: bool = True,
        planner_options: PlannerOptions | None = None,
        timeout: float | None = None,
        memory_budget: int | None = None,
        max_rows: int | None = None,
        governor: Governor | None = None,
    ) -> XmlChunkStream:
        """Publish an XQuery over an XML view as a streamed document.

        The paper's full pipeline, constant-memory end to end: translate
        the FLWR ``query`` against ``view``
        (:class:`~repro.xmlpub.translate.Translator`), run the chosen SQL
        ``formulation`` (``"gapply"``, the default, or ``"union"`` for the
        sorted outer union) as a lazily executed statement — through the
        plan cache like any :meth:`sql` call, so a repeated publish skips
        bind + optimize — and feed the clustered rows to the
        constant-space tagger, yielding encoded XML chunks of roughly
        ``chunk_bytes`` each.

        One governor covers the whole publish: query execution *and* the
        XML chunk buffer draw on the same ``memory_budget``, emitted bytes
        are tallied on ``governor.emitted_bytes``, and cancelling it stops
        the stream within one chunk. Under a tight budget both
        formulations stay constant-memory: GApply's partition phase and
        the sorted outer union's ORDER BY spill to disk.

        Returns an :class:`~repro.xmlpub.stream.XmlChunkStream` — iterate
        it, ``read_all()`` it, or ``close()`` it early; abandoning it
        mid-document releases operator state and spill files.
        """
        options = _own_options(Database.publish, locals())
        return self._publish(view, query, formulation, chunk_bytes, encoding, options)

    def _publish(
        self,
        view: XmlView,
        query: str,
        formulation: str,
        chunk_bytes: int,
        encoding: str,
        options: _RunOptions,
    ) -> XmlChunkStream:
        """:meth:`publish` behind option resolution: translate, prepare
        the translated SQL like any statement, stream it into the tagger."""
        translated = Translator(view, self.catalog).translate(query)
        sql_text = translated.sql_for(formulation)
        run = self._prepare(None, sql_text, None, options)
        return XmlChunkStream(
            self._rows(run),
            translated.spec,
            chunk_bytes=chunk_bytes,
            encoding=encoding,
            governor=options.governor,
            sql=sql_text,
        )

    def _optimizer(self, planner_options: PlannerOptions) -> Optimizer:
        """Build the optimizer without the ``disabled_rules`` on planner
        options; unknown rule names raise :class:`PlanError` here, before
        any partial execution happens."""
        try:
            rules = planner_options.active_rules()
        except KeyError as error:
            raise PlanError(str(error)) from error
        return Optimizer(self.catalog, rules)

    def explain(self, sql: str, optimize: bool = True) -> str:
        """The logical plan (optimized by default) as indented text."""
        logical, report = self._optimized(
            self.plan(sql), _own_options(Database.explain, locals())
        )
        if report is None:
            return logical.pretty()
        header = (
            f"-- cost: {report.best_estimate.cost:.0f} "
            f"(unoptimized {report.original_estimate.cost:.0f}); "
            f"rules: {', '.join(report.fired) or 'none'}\n"
        )
        return header + logical.pretty()


class Prepared:
    """A statement parsed and normalized once, executable many times.

    Built by :meth:`Database.prepare`. Two parameterization modes:

    * The text contains explicit ``$N`` markers: every ``execute`` call
      must bind a full ``params`` vector (``$1`` is ``params[0]``).
    * The text is a plain literal query: the normalizer extracts its
      literals into parameters in left-to-right order; ``execute()``
      re-runs the original literal values, ``execute(params)`` rebinds
      them positionally.

    Executions share the database's plan cache, so after the first run
    the per-call cost is parse-free *and* optimize-free: substitute the
    parameter vector into the cached optimized plan, lower, run.
    """

    def __init__(self, database: Database, text: str):
        self.database = database
        self.text = text
        statement = parse_statement(text)
        query = statement.query if isinstance(statement, AstExplain) else statement
        try:
            explicit = count_parameters(query)
        except ReproError as error:
            raise error.add_context(sql=text)
        if explicit:
            self._statement = statement
            self._defaults: tuple[Any, ...] | None = None
            self.parameter_count = explicit
        else:
            self._statement, values = parameterize(statement)
            self._defaults = values
            self.parameter_count = len(values)

    def execute(
        self, params: Sequence[Any] | None = None, **options: Any
    ) -> QueryResult | Explanation:
        """Run with ``params`` bound to the slots (see class docstring).

        ``**options`` are the option keywords of :meth:`Database.sql`
        (``explain``, ``planner_options``, budgets, ...).
        """
        resolved = _resolve_options("Prepared.execute", Database.sql, **options)
        values = self._defaults if params is None else tuple(params)
        # The pipeline checks the vector against the statement's markers.
        return self.database._run_statement(
            self.text, values or None, resolved, self._statement
        )
