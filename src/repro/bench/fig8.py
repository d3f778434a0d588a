"""Figure 8: speedup of GApply plans over classical plans for Q1-Q4.

Print the figure's data series with ``python -m repro.bench fig8_speedup``.

For each paper query the harness measures the classical (sorted outer
union / derived-table) formulation and the GApply formulation, with both
of the paper's partition strategies, and prints the ratio
``time(without GApply) / time(with GApply)`` — the Y axis of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.harness import Measurement, measure_sql, tpch_catalog
from repro.execution.gapply import HASH_PARTITION, SORT_PARTITION
from repro.optimizer.planner import PlannerOptions
from repro.storage.catalog import Catalog
from repro.workloads.queries import PAPER_QUERIES, PaperQuery

#: The approximate ratios read off the paper's Figure 8 bars (SQL Server
#: 2000, 5 GB TPC-H). Only the *shape* — GApply wins, roughly this much —
#: is expected to transfer to a different substrate.
PAPER_FIGURE8_RATIOS = {"Q1": 1.3, "Q2": 2.0, "Q3": 1.8, "Q4": 2.0}

DEFAULT_SCALE = 0.2


@dataclass(frozen=True)
class Fig8Row:
    query: str
    baseline: Measurement
    gapply_hash: Measurement
    gapply_sort: Measurement

    @property
    def speedup_hash(self) -> float:
        return self.baseline.ratio_to(self.gapply_hash)

    @property
    def speedup_sort(self) -> float:
        return self.baseline.ratio_to(self.gapply_sort)

    @property
    def work_speedup(self) -> float:
        return self.baseline.work_ratio_to(self.gapply_hash)


def run_query(
    catalog: Catalog, query: PaperQuery, repetitions: int = 3
) -> Fig8Row:
    baseline = measure_sql(
        catalog, query.baseline_sql, repetitions=repetitions
    )
    gapply_hash = measure_sql(
        catalog,
        query.gapply_sql,
        options=PlannerOptions(gapply_partitioning=HASH_PARTITION),
        repetitions=repetitions,
    )
    gapply_sort = measure_sql(
        catalog,
        query.gapply_sql,
        options=PlannerOptions(gapply_partitioning=SORT_PARTITION),
        repetitions=repetitions,
    )
    return Fig8Row(query.name, baseline, gapply_hash, gapply_sort)


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
        f"{'(sort)':>8} {'work x':>8} {'paper ~':>8}",
    ]
    for row in rows:
        lines.append(
            f"{row.query:<6} {row.baseline.elapsed * 1e3:>8.1f}ms "
            f"{row.gapply_hash.elapsed * 1e3:>8.1f}ms "
            f"{row.speedup_hash:>8.2f}x {row.speedup_sort:>7.2f}x "
            f"{row.work_speedup:>7.2f}x "
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
        named.append((f"{row.query}/gapply_sort", row.gapply_sort))
    return named
