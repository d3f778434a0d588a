"""The six spine workloads: set-up, seeded request lists, one-call
execution against the public API, and the staged replay that puts a span
around each layer's public function.

Every workload is a closed loop with one client: the next request is
issued when the previous one has returned and been checked. The TPC-H
data is fixed (``TpchConfig``'s own seed) so the SQLite oracle's float
aggregates never sit on a rounding edge for some seeds only; ``--seed``
drives request order, Q3's constants on ``sql_hot`` and the rows the
write workloads insert. The program only ever receives generated
SQL/XQuery/rows.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any

from check import DocumentCheck, SqlOracle, reopened_rows
from metrics import class_median
from repro.api import Database
from repro.execution.context import ExecutionContext
from repro.execution.governor import Budget, Governor
from repro.execution.vector.compiler import compile_plan
from repro.optimizer.engine import Optimizer
from repro.optimizer.plancache import (
    PlanKey,
    options_tag,
    substitute_parameters,
    text_digest,
)
from repro.optimizer.planner import Planner
from repro.serve import Service, ServiceConfig
from repro.sql.binder import Binder
from repro.sql.normalize import parameterize, type_signature
from repro.sql.parser import parse, parse_statement
from repro.sql.printer import print_statement
from repro.storage.types import DataType
from repro.workloads.queries import (
    HIGH_END_FRACTION,
    LOW_END_MULTIPLE,
    PAPER_QUERIES,
)
from repro.workloads.tpch import TpchConfig, load_tpch
from repro.xmlpub import (
    ConstantSpaceTagger,
    Translator,
    stream_document,
    tpch_supplier_view,
)
from spans import Tracer

#: The paper's Q1 and Q2 over the Figure-1 supplier view, in XQuery.
Q1_XQUERY = """
for $s in /doc(tpch.xml)/suppliers/supplier
return <ret>
    $s/s_suppkey,
    <parts>
        for $p in $s/part
        return <part> $p/p_name, $p/p_retailprice </part>
    </parts>,
    avg($s/part/p_retailprice)
</ret>
"""

Q2_XQUERY = """
for $s in /doc(tpch.xml)/suppliers/supplier
return <ret>
    $s/s_suppkey,
    <count_above>
        count($s/part[p_retailprice >= avg($s/part/p_retailprice)])
    </count_above>,
    <count_below>
        count($s/part[p_retailprice < avg($s/part/p_retailprice)])
    </count_below>
</ret>
"""

#: Fixed and stated so the numbers are the program's journaling path, not
#: the sandbox disk (the fsync="always" probe is informational only).
FSYNC = "never"

#: Reopens timed per durable directory for ``recovery_ms``.
RECOVERIES = 5


@dataclass(frozen=True)
class Request:
    kind: str  # "sql" | "publish" | "insert" | "txn" | "checkpoint"
    label: str
    payload: Any


def formulations() -> list[tuple[str, str]]:
    """The 8 formulations: ``PAPER_QUERIES`` Q1-Q4 x gapply/baseline."""
    return [
        (f"{query.name}/{kind}", getattr(query, f"{kind}_sql"))
        for query in PAPER_QUERIES
        for kind in ("gapply", "baseline")
    ]


def with_bands(text: str, high: float, low: float) -> str:
    """Q3's text with its two price-band constants replaced."""
    return text.replace(f"{HIGH_END_FRACTION} *", f"{high} *").replace(
        f"{LOW_END_MULTIPLE} *", f"{low} *"
    )


class Workload:
    """One workload: sizes, lifecycle hooks and the staged replay."""

    name = ""
    #: TPC-H scale factor (0 = the workload loads no TPC-H data).
    scale = 0.0
    #: Rounds of the fixed-length request list / of the traced replay /
    #: of a ``--quick`` run (which also divides ``scale`` by 10).
    rounds = 1
    traced_rounds = 1
    quick_rounds = 1

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        if quick:
            self.scale = self.scale / 10
            self.rounds = self.traced_rounds = self.quick_rounds
        #: Layer counts gathered by the staged replay.
        self.counts: Counter = Counter()
        self._baseline: Counter = Counter()

    def use_traced_sizes(self) -> None:
        """The traced run replays a shorter list: once plain, once with spans."""
        self.rounds = self.traced_rounds

    def rng(self, *parts: object) -> random.Random:
        return random.Random("/".join(map(str, (self.seed, self.name, *parts))))

    # -- lifecycle (setup is timed as setup_s and may run several times) --

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def prepare_checks(self) -> None:
        """Untimed, after the last set-up: oracles and expectations."""

    def round(self, index: int) -> list[Request]:
        raise NotImplementedError

    def begin_round(self, index: int) -> None:
        pass

    def end_round(self, index: int) -> None:
        pass

    def before(self, request: Request) -> None:
        """Untimed per-request preparation."""

    def execute(self, request: Request) -> Any:
        """The one public-API call the request stands for (timed)."""
        raise NotImplementedError

    def check(self, request: Request, output: Any) -> bool:
        raise NotImplementedError

    def final_check(self) -> bool:
        """Untimed, after the last round: durable state is as acknowledged."""
        return True

    def extra_metrics(self, busy: float) -> dict[str, tuple[float, int]]:
        """Workload-specific end-to-end metrics, name -> (value, samples),
        given the summed latency of the requests."""
        return {}

    # -- traced replay ----------------------------------------------------

    def staged(self, request: Request, output: Any, tracer: Tracer) -> None:
        """Replay ``request`` through the layers' public functions."""

    def probes(self, tracer: Tracer) -> None:
        """Side measurements taken once, after the traced pass."""

    def program_counts(self) -> Counter:
        """Cumulative counters the program itself keeps."""
        return Counter()

    def start_counting(self) -> None:
        self.counts.clear()
        self._baseline = self.program_counts()

    def layer_counts(self) -> Counter:
        counts = Counter(self.counts)
        for name, value in self.program_counts().items():
            counts[name] += value - self._baseline[name]
        return counts


# ----------------------------------------------------------------------
# The layers behind Database.sql, one call at a time
# ----------------------------------------------------------------------


class SqlChain:
    """``parse_statement`` -> ``parameterize``/``print_statement``/
    ``text_digest`` -> ``Binder.bind`` -> ``Optimizer.optimize`` ->
    ``substitute_parameters`` -> ``Planner.plan`` -> ``execute``, with a
    memo keyed like the plan cache so a repeated shape skips bind and
    optimize exactly when ``Database.sql`` would."""

    def __init__(self, counts: Counter):
        self.counts = counts
        self.memo: dict[PlanKey, Any] = {}

    def run(self, tracer: Tracer, catalog, text: str) -> None:
        counts = self.counts
        with tracer.span("sql.parser.parse"):
            statement = parse_statement(text)
        with tracer.span("sql.normalize.key"):
            template, values = parameterize(statement)
            key = PlanKey(
                digest=text_digest(print_statement(template)),
                type_tags=type_signature(values),
                catalog_version=catalog.version,
                options_tag=options_tag(None),
            )
        report = self.memo.get(key)
        if report is None:
            with tracer.span("sql.binder.bind"):
                bound = Binder(catalog).bind(template)
            with tracer.span("optimizer.engine.optimize"):
                report = Optimizer(catalog).optimize(bound)
            self.memo[key] = report
            counts["optimizer.engine.explored"] += report.explored
            counts["optimizer.engine.truncated"] += report.truncated
        with tracer.span("optimizer.plancache.substitute"):
            logical = substitute_parameters(report.best, values)
        execute_plan(tracer, counts, catalog, logical)


def execute_plan(tracer: Tracer, counts: Counter, catalog, logical) -> list[tuple]:
    """``Planner.plan`` then ``execute`` under the default (Volcano)
    engine, inside the caller's open staged span."""
    with tracer.span("optimizer.planner.lower"):
        physical = Planner(catalog, None).plan(logical)
    context = ExecutionContext()
    with tracer.span("execution.volcano.execute"):
        rows = list(physical.execute(context))
    counts["execution.work"] += context.counters.total_work
    counts["execution.rows_out"] += len(rows)
    counts["execution.buffered_cells"] += context.counters.buffered_cells
    counts["execution.spill_runs"] += context.counters.spill_runs
    return rows


def vector_probe(tracer: Tracer, counts: Counter, catalog, logical) -> None:
    """``compile_plan`` and ``VectorPlan.rows`` on the plan the default
    engine just ran: what the vector engine would have charged."""
    physical = Planner(catalog, None).plan(logical)
    with tracer.span("probe"):
        with tracer.span("execution.vector.compile"):
            plan = compile_plan(physical)
        with tracer.span("execution.vector.execute"):
            for _ in plan.rows(ExecutionContext()):
                pass
    counts["execution.vector.fallback_ops"] += len(plan.fallbacks)


class SqlWorkload(Workload):
    """Shared by the workloads whose reads are the 8 formulations;
    ``self.database`` is the database they run on."""

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.formulations = formulations()
        self.chain = SqlChain(self.counts)
        self.oracle: SqlOracle | None = None

    def texts(self) -> list[str]:
        return [text for _, text in self.formulations]

    def shuffled(self, rng: random.Random) -> list[Request]:
        order = list(self.formulations)
        rng.shuffle(order)
        return [Request("sql", label, text) for label, text in order]

    def check(self, request: Request, output: Any) -> bool:
        return self.oracle.matches(request.payload, output.rows)

    def start_counting(self) -> None:
        # The replay's memo starts as warm as the program's plan cache is.
        for text in self.texts():
            self.chain.run(Tracer(), self.database.catalog, text)
        super().start_counting()

    def program_counts(self) -> Counter:
        stats = self.database.plan_cache.stats()
        return Counter(
            {
                f"optimizer.plancache.{name}": stats[name]
                for name in ("hits", "misses", "invalidations", "replans")
            }
        )


class InMemorySql(SqlWorkload):
    def setup(self) -> None:
        self.database = Database()
        load_tpch(self.database.catalog, TpchConfig(scale=self.scale))
        # One pass over every text: lazy statistics and first-call costs
        # are paid here, and on sql_hot this is what primes the cache.
        for text in self.texts():
            self.database.sql(text)

    def prepare_checks(self) -> None:
        self.oracle = SqlOracle(self.database.catalog, self.texts())

    def round(self, index: int) -> list[Request]:
        return self.shuffled(self.rng(index))

    def execute(self, request: Request) -> Any:
        return self.database.sql(request.payload)

    def staged(self, request: Request, output: Any, tracer: Tracer) -> None:
        catalog = self.database.catalog
        with tracer.span("staged"):
            self.chain.run(tracer, catalog, request.payload)
        vector_probe(tracer, self.counts, catalog, output.logical_plan)


class SqlCold(InMemorySql):
    name = "sql_cold"
    scale = 0.2
    rounds = 15
    traced_rounds = 3
    quick_rounds = 2

    def before(self, request: Request) -> None:
        self.database.plan_cache.clear()
        self.chain.memo.clear()


class SqlHot(InMemorySql):
    name = "sql_hot"
    scale = 0.5
    rounds = 15
    traced_rounds = 4
    quick_rounds = 2

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        rng = self.rng("bands")
        #: The seeded set of 4 (high fraction, low multiple) pairs; kept
        #: close to the paper's 0.8/1.5 so a seed moves the rows returned
        #: by a few percent, not the shape of the work.
        self.bands = [
            (round(rng.uniform(0.78, 0.82), 3), round(rng.uniform(1.45, 1.55), 3))
            for _ in range(4)
        ]

    def texts(self) -> list[str]:
        texts = []
        for label, text in self.formulations:
            if label.startswith("Q3"):
                texts.extend(with_bands(text, *band) for band in self.bands)
            else:
                texts.append(text)
        return texts

    def round(self, index: int) -> list[Request]:
        rng = self.rng(index)
        requests = []
        for request in self.shuffled(rng):
            if request.label.startswith("Q3"):
                text = with_bands(request.payload, *rng.choice(self.bands))
                request = Request("sql", request.label, text)
            requests.append(request)
        return requests


# ----------------------------------------------------------------------
# Publishing
# ----------------------------------------------------------------------


class PublishWorkload(Workload):
    xquery = ""
    per_round: tuple[str, ...] = ()

    def setup(self) -> None:
        self.database = Database()
        load_tpch(self.database.catalog, TpchConfig(scale=self.scale))
        self.view = tpch_supplier_view()
        for formulation in self.per_round:  # first-call costs are paid here
            self.database.publish(self.view, self.xquery, formulation).read_all()
        self.first_chunk: list[float] = []
        self.first_chunk_labels: list[str] = []
        self.bytes_out = 0

    def prepare_checks(self) -> None:
        translated = Translator(self.view, self.database.catalog).translate(self.xquery)
        self.documents = DocumentCheck(translated.spec.group_tag)

    def round(self, index: int) -> list[Request]:
        return [Request("publish", f, (self.xquery, f)) for f in self.per_round]

    def execute(self, request: Request) -> Any:
        xquery, formulation = request.payload
        started = perf_counter()
        stream = self.database.publish(self.view, xquery, formulation)
        first = next(stream)
        self.first_chunk.append(perf_counter() - started)
        self.first_chunk_labels.append(formulation)
        document = first + stream.read_all()
        self.bytes_out += len(document)
        stats = stream.stats
        self.counts["xmlpub.stream.chunks"] += stats.chunks
        self.counts["xmlpub.stream.bytes_emitted"] += stats.bytes_emitted
        self.counts["xmlpub.stream.peak_buffer_bytes"] = max(
            self.counts["xmlpub.stream.peak_buffer_bytes"], stats.peak_buffer_bytes
        )
        return document

    def check(self, request: Request, output: Any) -> bool:
        return self.documents.accepts(output)

    def extra_metrics(self, busy: float) -> dict[str, tuple[float, int]]:
        samples = len(self.first_chunk)
        first_chunk = class_median(self.first_chunk, self.first_chunk_labels)
        return {
            "first_chunk_ms": (first_chunk * 1e3, samples),
            "xml_mb_per_s": (self.bytes_out / 1e6 / busy, samples),
        }

    def staged(self, request: Request, output: Any, tracer: Tracer) -> None:
        """``Translator.translate`` -> ``parse`` -> ``Binder.bind`` ->
        ``Optimizer.optimize`` -> ``Planner.plan`` -> ``execute`` ->
        ``stream_document`` over the materialised rows; the tagger alone
        runs as a probe so the stream's own encode time is the rest."""
        xquery, formulation = request.payload
        catalog = self.database.catalog
        counts = self.counts
        with tracer.span("staged"):
            with tracer.span("xmlpub.translate.translate"):
                translated = Translator(self.view, catalog).translate(xquery)
                sql_text = translated.sql_for(formulation)
            with tracer.span("sql.parser.parse"):
                query = parse(sql_text)
            with tracer.span("sql.binder.bind"):
                bound = Binder(catalog).bind(query)
            with tracer.span("optimizer.engine.optimize"):
                report = Optimizer(catalog).optimize(bound)
            counts["optimizer.engine.explored"] += report.explored
            counts["optimizer.engine.truncated"] += report.truncated
            rows = execute_plan(tracer, counts, catalog, report.best)
            with tracer.span("xmlpub.stream.document"):
                for _ in stream_document(rows, translated.spec):
                    pass
        with tracer.span("probe"):
            with tracer.span("xmlpub.tagger.tag"):
                for _ in ConstantSpaceTagger(translated.spec).tag(rows):
                    pass
        counts["xmlpub.tagger.rows_in"] += len(rows)
        counts["xmlpub.tagger.bytes"] += len(output)
        vector_probe(tracer, counts, catalog, report.best)


class PublishDoc(PublishWorkload):
    name = "publish_doc"
    scale = 1.0
    rounds = 50
    traced_rounds = 10
    quick_rounds = 3
    xquery = Q1_XQUERY
    per_round = ("gapply", "union")


class PublishAgg(PublishWorkload):
    name = "publish_agg"
    scale = 0.5
    rounds = 100
    traced_rounds = 15
    quick_rounds = 5
    xquery = Q2_XQUERY
    per_round = ("gapply",)


# ----------------------------------------------------------------------
# Reads beside writes, through the service
# ----------------------------------------------------------------------


class MemoryTwin:
    """An in-memory table that takes the same single-row inserts as a
    durable one. A write cannot be replayed, so journaling is measured
    as what is left of the durable insert when the twin's time is taken
    away."""

    def __init__(self, table: str, columns: list[tuple[str, DataType]]):
        self.table = table
        self.database = Database()
        self.database.create_table(table, columns)

    def insert(self, tracer: Tracer, rows: list[tuple]) -> None:
        with tracer.span("probe"):
            with tracer.span("storage.catalog.insert_rows"):
                self.database.catalog.insert_rows(self.table, rows)


AUDIT_COLUMNS = [
    ("a_id", DataType.INTEGER),
    ("a_client", DataType.STRING),
    ("a_note", DataType.STRING),
]


class MixedRw(SqlWorkload):
    name = "mixed_rw"
    scale = 0.2
    rounds = 10
    traced_rounds = 2
    quick_rounds = 1
    #: Requests per round and where in the round the write sits; mid-round
    #: so reads follow every write and each stale plan is re-planned.
    period = 40
    write_at = 20

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.service: Service | None = None

    @property
    def database(self) -> Database:
        return self.service.database

    def setup(self) -> None:
        self.teardown()
        self.data_dir = str(self.workdir / "service")
        config = ServiceConfig(durable=True, data_dir=self.data_dir, fsync=FSYNC)
        self.service = Service(config=config)
        load_tpch(self.database.catalog, TpchConfig(scale=self.scale))
        self.service.create_table("audit", AUDIT_COLUMNS)
        self.twin = MemoryTwin("audit", AUDIT_COLUMNS)
        self.session = self.service.session("spine")
        # Defined as warm: the first write is what makes plans stale.
        for text in self.texts():
            self.session.sql(text)
        self.acknowledged: list[tuple] = []

    def teardown(self) -> None:
        if self.service is not None:
            self.service.shutdown()
            self.service = None
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def prepare_checks(self) -> None:
        self.oracle = SqlOracle(self.database.catalog, self.texts())

    def round(self, index: int) -> list[Request]:
        rng = self.rng(index)
        reads = [r for _ in range(self.period // 8 + 1) for r in self.shuffled(rng)]
        requests = reads[: self.period - 1]
        row = (index, f"client-{rng.randrange(1000)}", f"{rng.getrandbits(96):024x}")
        requests.insert(self.write_at, Request("insert", "audit", [row]))
        return requests

    def execute(self, request: Request) -> Any:
        if request.kind == "insert":
            return self.session.insert("audit", request.payload)
        return self.session.sql(request.payload)

    def check(self, request: Request, output: Any) -> bool:
        if request.kind == "insert":
            self.acknowledged.extend(request.payload)
            return output == len(request.payload)
        return super().check(request, output)

    def final_check(self) -> bool:
        partsupp = list(self.database.table("partsupp").rows)
        self.service.shutdown()
        try:
            return (
                reopened_rows(self.data_dir, "audit") == self.acknowledged
                and reopened_rows(self.data_dir, "partsupp") == partsupp
            )
        finally:
            self.service = None
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def staged(self, request: Request, output: Any, tracer: Tracer) -> None:
        if request.kind == "insert":
            self.twin.insert(tracer, request.payload)
            return
        with tracer.span("staged"):
            with tracer.span("storage.catalog.snapshot"):
                reader = self.database.snapshot()
            self.chain.run(tracer, reader.catalog, request.payload)
        vector_probe(tracer, self.counts, reader.catalog, output.logical_plan)

    def probes(self, tracer: Tracer) -> None:
        """``Service.sql`` against ``Database.sql`` on the same hot
        request, and the admission gate alone."""
        database = self.database
        admission = self.service.admission
        for request_id, text in enumerate(self.texts() * 3):
            tracer.request_id = -2 - request_id
            with tracer.span("probe"):
                with tracer.span("serve.service.sql"):
                    self.session.sql(text)
                with tracer.span("serve.database.sql"):
                    database.sql(text)
                governor = Governor(Budget(), sql=text)
                with tracer.span("serve.admission.acquire"):
                    admission.acquire(0, governor, sql=text)
                admission.release()

    def program_counts(self) -> Counter:
        counts = super().program_counts()
        stats = self.service.stats()
        counts["storage.wal.wal_bytes"] = stats["wal_bytes"]
        counts["storage.wal.fsyncs"] = stats["fsyncs"]
        counts["serve.shed"] = stats.get("shed", 0)
        return counts


# ----------------------------------------------------------------------
# Writes alone
# ----------------------------------------------------------------------

EVENT_COLUMNS = [
    ("e_id", DataType.INTEGER),
    ("e_kind", DataType.STRING),
    ("e_payload", DataType.STRING),
    ("e_amount", DataType.FLOAT),
]
EVENT_KINDS = ("order", "refund", "ship", "return", "audit", "login", "quote")


def user_bytes(row: tuple) -> int:
    """Payload bytes of one events row: 8 per number, UTF-8 per string."""
    return 16 + len(row[1].encode()) + len(row[2].encode())


class WriteDurable(Workload):
    """One round is one whole store lifetime in a fresh directory:
    auto-commit inserts, then transactions, checkpoints on the way,
    ``close()``, and ``RECOVERIES`` timed reopens."""

    name = "write_durable"
    autocommits = 50_000
    transactions = 1_000
    transaction_rows = 20
    #: Commits between checkpoints; none in the last 10 000 auto-commits
    #: or the transactions, which leaves a tail of over 10 000 records.
    checkpoint_every = 10_000
    #: The traced replay and ``--quick`` shrink the lifetime by these,
    #: the warm-up lifetime in set-up by ``warmup_divisor`` (never less).
    traced_divisor = 5
    quick_divisor = 10
    warmup_divisor = 50

    def __init__(self, seed: int, quick: bool, workdir: Path):
        super().__init__(seed, quick, workdir)
        self.divisor = self.quick_divisor if quick else 1
        self.database: Database | None = None
        self.twin = MemoryTwin("events", EVENT_COLUMNS)
        self.data_dir = str(workdir / "store")
        self.recovery: list[float] = []
        self.stored = 0
        self.user = 0
        self.durable_ok = True

    def use_traced_sizes(self) -> None:
        self.divisor = max(self.divisor, self.traced_divisor)

    def open_fresh(self) -> None:
        self.teardown()
        self.database = Database.open(self.data_dir, fsync=FSYNC)
        self.database.create_table("events", EVENT_COLUMNS)
        self.acknowledged: list[tuple] = []

    def setup(self) -> None:
        """A small store lifetime first — open, insert, checkpoint,
        transact, close, recover: first-call costs are paid here, as the
        other set-ups pay theirs — then the store the first round uses."""
        divisor, self.divisor = self.divisor, max(self.divisor, self.warmup_divisor)
        try:
            self.open_fresh()
            for request in self.round(-1):
                self.execute(request)
            self.database.close()
            Database.open(self.data_dir, fsync=FSYNC).close()
        finally:
            self.divisor = divisor
        self.open_fresh()

    def teardown(self) -> None:
        if self.database is not None:
            self.database.close()
            self.database = None
            shutil.rmtree(self.data_dir, ignore_errors=True)

    def begin_round(self, index: int) -> None:
        if self.database is None or self.acknowledged:
            self.open_fresh()

    def round(self, index: int) -> list[Request]:
        rng = self.rng(index)
        autocommits = self.autocommits // self.divisor
        every = self.checkpoint_every // self.divisor
        rows = [
            (
                e_id,
                rng.choice(EVENT_KINDS),
                f"{rng.getrandbits(128):032x}" * rng.randrange(1, 3),
                rng.randrange(1, 100_000) / 4,
            )
            for e_id in range(
                autocommits
                + self.transactions // self.divisor * self.transaction_rows
            )
        ]
        requests = []
        for position in range(autocommits):
            requests.append(Request("insert", "insert", [rows[position]]))
            commits = position + 1
            if commits % every == 0 and commits <= autocommits - every:
                requests.append(Request("checkpoint", "checkpoint", None))
        for start in range(autocommits, len(rows), self.transaction_rows):
            batch = rows[start : start + self.transaction_rows]
            requests.append(Request("txn", "txn", batch))
        return requests

    def execute(self, request: Request) -> Any:
        database = self.database
        if request.kind == "insert":
            return database.catalog.insert_rows("events", request.payload)
        if request.kind == "txn":
            inserted = 0
            with database.begin():
                for row in request.payload:
                    inserted += database.catalog.insert_rows("events", [row])
            return inserted
        database.checkpoint()
        return None

    def check(self, request: Request, output: Any) -> bool:
        if request.kind == "checkpoint":
            return True
        self.acknowledged.extend(request.payload)
        return output == len(request.payload)

    def end_round(self, index: int) -> None:
        stats = self.database.wal.stats()
        self.counts["storage.wal.wal_bytes"] += stats["wal_bytes"]
        self.counts["storage.wal.fsyncs"] += stats["fsyncs"]
        self.database.close()
        self.database = None
        self.stored += sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(self.data_dir)
            for name in names
        )
        self.user += sum(map(user_bytes, self.acknowledged))
        # Timed reopens on the first store only: later rounds exist to
        # fill --seconds, and every store is still reopened once below.
        if index == 0:
            self.time_recovery()
        if reopened_rows(self.data_dir, "events") != self.acknowledged:
            self.durable_ok = False
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def time_recovery(self) -> None:
        for _ in range(RECOVERIES):
            started = perf_counter()
            reopened = Database.open(self.data_dir, fsync=FSYNC)
            elapsed = perf_counter() - started
            self.recovery.append(elapsed)
            self.counts["storage.wal.recovery_seconds"] += elapsed
            self.counts["storage.wal.replayed_records"] += reopened.wal.replayed_records
            reopened.close()

    def final_check(self) -> bool:
        return self.durable_ok

    def extra_metrics(self, busy: float) -> dict[str, tuple[float, int]]:
        recovery = sorted(self.recovery)
        return {
            "recovery_ms": (recovery[len(recovery) // 2] * 1e3, len(recovery)),
            "stored_bytes_per_user_byte": (self.stored / self.user, 1),
        }

    def staged(self, request: Request, output: Any, tracer: Tracer) -> None:
        """The one call *is* the layer function here, so nothing is
        replayed; an in-memory twin takes the same single-row insert so
        journaling is what is left when the twin's time is taken away."""
        if request.kind == "insert":
            self.twin.insert(tracer, request.payload)
        elif request.kind == "checkpoint":
            newest = max(
                name for name in os.listdir(self.data_dir) if name.endswith(".ckpt")
            )
            self.counts["storage.wal.checkpoint_bytes"] += os.path.getsize(
                os.path.join(self.data_dir, newest)
            )

    def probes(self, tracer: Tracer) -> None:
        """A short pass under ``fsync="always"`` beside the same pass
        under ``"never"``: what the sandbox disk charges per commit."""
        rows = [(i, "probe", f"{i:032x}", i / 4) for i in range(200)]
        for policy in ("never", "always"):
            path = str(self.workdir / f"fsync-{policy}")
            database = Database.open(path, fsync=policy)
            try:
                database.create_table("events", EVENT_COLUMNS)
                for request_id, row in enumerate(rows):
                    tracer.request_id = -2 - request_id
                    with tracer.span("probe"):
                        with tracer.span(f"storage.wal.insert.{policy}"):
                            database.catalog.insert_rows("events", [row])
            finally:
                database.close()
                shutil.rmtree(path, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SqlCold, SqlHot, PublishDoc, PublishAgg, MixedRw, WriteDurable)
}
