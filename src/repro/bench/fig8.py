"""Figure 8: speedup of GApply plans over classical plans for Q1-Q4.

Print the figure's data series with ``python -m repro.bench fig8_speedup``.

For each paper query the harness measures the classical (sorted outer
union / derived-table) formulation and the GApply formulation, and
prints the ratio ``time(without GApply) / time(with GApply)`` — the Y
axis of Figure 8.
The classical formulation runs with its joins ordered by cost, as the
paper's SQL Server ordered them, and once more as written (the
``join_order`` rule off), the baseline this engine measured before it
ordered joins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import (
    Measurement,
    bind,
    lower,
    measure_physical,
    measure_sql,
    optimize_with,
    tpch_catalog,
)
from repro.optimizer.planner import PlannerOptions
from repro.storage.catalog import Catalog
from repro.workloads.queries import PAPER_QUERIES, PaperQuery

#: The approximate ratios read off the paper's Figure 8 bars (SQL Server
#: 2000, 5 GB TPC-H). Only the *shape* — GApply wins, roughly this much —
#: is expected to transfer to a different substrate.
PAPER_FIGURE8_RATIOS = {"Q1": 1.3, "Q2": 2.0, "Q3": 1.8, "Q4": 2.0}

DEFAULT_SCALE = 0.2

#: Every rule but ``join_order``: the classical formulation as written.
WRITTEN_ORDER = PlannerOptions(disabled_rules=("join_order",))


@dataclass(frozen=True)
class Fig8Row:
    query: str
    baseline: Measurement
    gapply_hash: Measurement
    #: The classical formulation with its joins in FROM order.
    baseline_written: Measurement

    @property
    def speedup_hash(self) -> float:
        return self.baseline.ratio_to(self.gapply_hash)

    @property
    def work_speedup(self) -> float:
        return self.baseline.work_ratio_to(self.gapply_hash)


def run_query(
    catalog: Catalog, query: PaperQuery, repetitions: int = 3
) -> Fig8Row:
    baseline = measure_sql(
        catalog, query.baseline_sql, repetitions=repetitions
    )
    gapply_hash = measure_sql(catalog, query.gapply_sql, repetitions=repetitions)
    written = WRITTEN_ORDER.active_rules()
    baseline_written = measure_physical(
        lower(catalog, optimize_with(catalog, bind(catalog, query.baseline_sql), written)),
        repetitions,
    )
    return Fig8Row(query.name, baseline, gapply_hash, baseline_written)


def run_figure8(
    scale: float = DEFAULT_SCALE, repetitions: int = 3
) -> list[Fig8Row]:
    catalog = tpch_catalog(scale)
    return [run_query(catalog, query, repetitions) for query in PAPER_QUERIES]


def format_rows(rows: list[Fig8Row]) -> str:
    lines = [
        "Figure 8 — speedup using GApply "
        "(ratio of time without GApply to time with GApply; "
        "execution only)",
        "",
        f"{'query':<6} {'baseline':>10} {'gapply':>10} {'speedup':>9} "
        f"{'work x':>8} {'as written':>11} {'speedup':>9} "
        f"{'work x':>8} {'paper ~':>8}",
    ]
    for row in rows:
        written = row.baseline_written
        lines.append(
            f"{row.query:<6} {row.baseline.elapsed * 1e3:>8.1f}ms "
            f"{row.gapply_hash.elapsed * 1e3:>8.1f}ms "
            f"{row.speedup_hash:>8.2f}x "
            f"{row.work_speedup:>7.2f}x "
            f"{written.elapsed * 1e3:>9.1f}ms "
            f"{written.ratio_to(row.gapply_hash):>8.2f}x "
            f"{written.work_ratio_to(row.gapply_hash):>7.2f}x "
            f"{PAPER_FIGURE8_RATIOS[row.query]:>7.1f}x"
        )
    return "\n".join(lines)


def cases(scale: float, repetitions: int) -> list[tuple[str, Measurement]]:
    """E1: print Figure 8 and return its measurements. Names are
    ``query/formulation``, the keys of ``benchmarks/baselines.json``, whose
    per-case ``work`` a tier-1 test asserts at smoke scale."""
    rows = run_figure8(scale, repetitions)
    print(format_rows(rows), end="\n\n")
    named = []
    for row in rows:
        named.append((f"{row.query}/baseline", row.baseline))
        named.append((f"{row.query}/gapply_hash", row.gapply_hash))
    return named
