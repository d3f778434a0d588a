"""The paper's client-side simulation of GApply (Section 5.1).

The paper could not control GApply invocation on SQL Server 2000, so it
simulated the operator from the client:

* **Partition phase** — store the outer query's result in a temp table
  whose non-grouping columns are concatenated into one ``miscCols`` value
  (xor-ed with a running counter so every value is distinct), then run

      Q_partition:     select <keys>, count(distinct miscCols)
                       from tmpTable group by <keys>

  which forces the server to manage every miscCols value — the cost of
  hash-partitioning. The extra work (hashing/comparing the miscCols
  strings) is estimated by

      Q_overestimate:  select count(distinct miscCols) from tmpTable

  and subtracted.

* **Execution phase** — for each distinct key, extract that key's rows
  into a temp table and run the per-group query against it.

This module re-implements that protocol *inside our engine* so we can
reproduce the paper's E8 calibration: on the one query where the paper got
a native server-side GApply (Q4), the client-side simulation took ~20%
longer. We compare the simulated total against the native PGApply plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.api import Database
from repro.bench.harness import (
    Measurement,
    bind,
    lower,
    measure_physical,
    optimize_with,
    tpch_catalog,
)
from repro.execution.base import run_plan
from repro.execution.context import ExecutionContext
from repro.storage.schema import Column, Schema
from repro.storage.table import Table
from repro.storage.types import DataType, grouping_key
from repro.workloads.queries import query_by_name


@dataclass(frozen=True)
class SimulationResult:
    """Timings of the simulated phases vs the native operator, and the
    deterministic work (``Counters.total_work``) of the two phase queries
    the paper's accounting subtracts one from the other."""

    outer_time: float
    partition_time: float
    overestimate_time: float
    execution_time: float
    rows: int
    partition_work: int
    overestimate_work: int
    native: Measurement

    @property
    def simulated_total(self) -> float:
        """The paper's accounting: outer + partition - overestimate +
        per-group execution."""
        return (
            self.outer_time
            + self.partition_time
            - self.overestimate_time
            + self.execution_time
        )

    @property
    def overhead(self) -> float:
        """simulated / native elapsed ratio (paper: ~1.2 for Q4)."""
        if self.native.elapsed == 0:
            return float("inf")
        return self.simulated_total / self.native.elapsed


def _misc_concat(row: tuple, key_positions: list[int], counter: int) -> str:
    """Concatenate the non-grouping columns, xor-ed with a counter.

    The paper xors miscCols with an incrementing counter to force all
    values distinct; string-level, we append the counter, which has the
    same effect (every value unique, width preserved up to digits).
    """
    parts = [
        "NULL" if value is None else str(value)
        for position, value in enumerate(row)
        if position not in key_positions
    ]
    return "|".join(parts) + f"#{counter}"


def simulate_gapply(
    db: Database,
    outer_sql: str,
    grouping_columns: list[str],
    per_group_sql: str,
    group_variable: str = "tmpgroup",
) -> tuple[float, float, float, float, int, int, int]:
    """Run the Section-5.1 protocol; returns the four phase timings, the
    row count and the work of Q_partition and of Q_overestimate.

    ``per_group_sql`` references ``group_variable`` as its only table; it
    is re-bound and re-run once per group against a registered temp table,
    exactly like the paper's per-group extraction step.
    """
    catalog = db.catalog

    # ---- run the outer query and store it (tmpTable with miscCols) -----
    start = time.perf_counter()
    outer_result = db.sql(outer_sql)
    key_positions = [
        outer_result.schema.index_of(reference) for reference in grouping_columns
    ]
    misc_schema = Schema(
        tuple(
            Column(
                outer_result.schema[i].name,
                outer_result.schema[i].dtype,
                "tmptable",
            )
            for i in key_positions
        )
        + (Column("misccols", DataType.STRING, "tmptable"),)
    )
    tmp_table = Table("tmptable", misc_schema)
    for counter, row in enumerate(outer_result.rows):
        keys = tuple(row[i] for i in key_positions)
        tmp_table.rows.append(keys + (_misc_concat(row, key_positions, counter),))
    catalog.register(tmp_table, replace=True)
    catalog.invalidate_statistics("tmptable")
    outer_time = time.perf_counter() - start

    # ---- Q_partition ----------------------------------------------------
    key_list = ", ".join(misc_schema[i].name for i in range(len(key_positions)))
    start = time.perf_counter()
    partition_result = db.sql(
        f"select {key_list}, count(distinct misccols) from tmptable "
        f"group by {key_list}"
    )
    partition_time = time.perf_counter() - start

    # ---- Q_overestimate --------------------------------------------------
    start = time.perf_counter()
    overestimate_result = db.sql("select count(distinct misccols) from tmptable")
    overestimate_time = time.perf_counter() - start

    # ---- execution phase: per-group extraction + per-group query ---------
    groups: dict[tuple, list[tuple]] = {}
    for row in outer_result.rows:
        key = grouping_key(tuple(row[i] for i in key_positions))
        groups.setdefault(key, []).append(row)

    group_schema = Schema(
        tuple(
            Column(column.name, column.dtype, group_variable)
            for column in outer_result.schema
        )
    )
    group_table = Table(group_variable, group_schema)
    catalog.register(group_table, replace=True)
    per_group_plan_cache = None
    output_rows = 0
    start = time.perf_counter()
    for rows in groups.values():
        group_table.rows = rows
        group_table._invalidate_indexes()
        if per_group_plan_cache is None:
            logical = bind(catalog, per_group_sql)
            per_group_plan_cache = lower(catalog, logical)
        # The only ``run_plan`` (row-iterator) call in any experiment: this
        # step models a client re-issuing one small query per tiny group.
        # Every other case times the compiled plan, as a request runs it.
        output_rows += len(run_plan(per_group_plan_cache, ExecutionContext()))
    execution_time = time.perf_counter() - start

    catalog.drop("tmptable")
    catalog.drop(group_variable)
    return (
        outer_time, partition_time, overestimate_time, execution_time, output_rows,
        partition_result.counters.total_work, overestimate_result.counters.total_work,
    )


def run_q4_calibration(scale: float = 0.1) -> SimulationResult:
    """E8: simulate Q4's GApply from the client; compare with the native
    operator (the paper's only wholly-server-side data point)."""
    db = Database(tpch_catalog(scale))

    outer_sql = (
        "select ps_suppkey, p_size, p_name, p_retailprice "
        "from partsupp, part where ps_partkey = p_partkey"
    )
    per_group_sql = (
        "select p_name, p_retailprice from tmpgroup "
        "where p_retailprice > (select avg(p_retailprice) from tmpgroup)"
    )
    phases = simulate_gapply(db, outer_sql, ["ps_suppkey", "p_size"], per_group_sql)
    native_logical = optimize_with(
        db.catalog, bind(db.catalog, query_by_name("Q4").gapply_sql)
    )
    native = measure_physical(lower(db.catalog, native_logical))
    return SimulationResult(*phases, native)


def format_calibration(result: SimulationResult) -> str:
    return (
        "E8 - client-side simulation of GApply (Q4), Section 5.1\n"
        f"  simulated {result.simulated_total * 1e3:.1f} ms vs native "
        f"{result.native.elapsed * 1e3:.1f} ms -> overhead "
        f"{result.overhead:.2f}x (paper: ~1.2x; both conservative)"
    )


def cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    """E8: print the calibration and return the native plan plus each
    simulated phase. The protocol runs once whatever ``repetitions`` says:
    its phases are whole-protocol wall times, not single-plan executions,
    so they carry no work counters — the native row does."""
    result = run_q4_calibration(scale)
    print(format_calibration(result), end="\n\n")
    return [
        ("q4/native", result.native),
        ("q4/simulated_total", Measurement(result.simulated_total, 0, result.rows)),
        ("q4/sim_outer", Measurement(result.outer_time, 0, 0)),
        ("q4/sim_partition", Measurement(result.partition_time, 0, 0)),
        ("q4/sim_overestimate", Measurement(result.overestimate_time, 0, 0)),
        ("q4/sim_execution", Measurement(result.execution_time, 0, 0)),
    ]
