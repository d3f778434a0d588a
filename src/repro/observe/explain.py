"""EXPLAIN / EXPLAIN ANALYZE rendering.

An :class:`Explanation` bundles everything one query run produced for
inspection: the physical plan (with the planner's ``est_rows`` stamps),
the optimizer's :class:`~repro.optimizer.engine.OptimizationReport`
(rule-firing trace), and — for ANALYZE — the metrics registry and tracer
from an actual execution. ``render()`` produces the annotated plan tree;
``to_json()`` the machine-readable trace document CI archives.

Plain ``EXPLAIN`` output is deterministic (labels, estimates, rule trace —
no wall-clock anywhere), which is what lets the golden plan-snapshot tests
check it in verbatim. ``EXPLAIN ANALYZE`` adds actual cardinalities and
per-operator timings, so its text is for humans and its counters — never
its timings — for tests.

This module deliberately lives outside ``repro.observe.__init__``: it
imports the execution layer, which the metrics module must not (the base
operator imports metrics lazily through the context), so keeping it out of
the package root avoids an import cycle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.execution.base import PhysicalOperator
from repro.observe.metrics import MetricsRegistry, join_path

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.execution.context import Counters
    from repro.execution.vector.compiler import FallbackNote
    from repro.observe.trace import Tracer
    from repro.optimizer.engine import OptimizationReport
    from repro.storage.schema import Schema


def format_rows(value: float | int | None) -> str:
    """Row counts for display: ints plain, floats trimmed, None as '?'."""
    if value is None:
        return "?"
    if isinstance(value, float):
        if value == int(value):
            return str(int(value))
        return f"{value:.1f}"
    return str(value)


@dataclass
class Explanation:
    """The result of ``EXPLAIN [ANALYZE] <query>``.

    ``rows``/``schema``/``counters`` are populated only for ANALYZE (the
    query actually ran); ``registry``/``tracer`` likewise.
    """

    sql: str | None
    analyze: bool
    physical_plan: PhysicalOperator
    report: "OptimizationReport | None" = None
    registry: MetricsRegistry | None = None
    tracer: "Tracer | None" = None
    rows: list | None = None
    schema: "Schema | None" = None
    counters: "Counters | None" = None
    #: Plan-cache outcome (source "hit"/"miss", key digest, param count)
    #: when the run went through the plan cache; None when it bypassed.
    plan_cache: dict[str, Any] | None = None
    #: The compiler's notes (``label``, ``reason``) on the subtrees that
    #: run on the row iterators inside the compiled plan.
    fallbacks: "tuple[FallbackNote, ...]" = ()

    # ------------------------------------------------------------------
    # Text rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        lines = ["EXPLAIN ANALYZE" if self.analyze else "EXPLAIN"]
        lines.extend(self._header_lines())
        metrics = self._metrics_by_path()
        self._render_node(self.physical_plan, "", 0, metrics, lines)
        return "\n".join(lines)

    __str__ = render

    def _header_lines(self) -> list[str]:
        # The cache line only names source and parameter count — both
        # deterministic for a given query on a fresh database — so golden
        # snapshots stay byte-stable.
        tail_lines = []
        if self.plan_cache is not None:
            count = self.plan_cache.get("params", 0)
            tail_lines.append(
                "-- plan cache: {} ({} param{})".format(
                    self.plan_cache.get("source", "?"),
                    count,
                    "" if count == 1 else "s",
                )
            )
        if self.fallbacks:
            tail_lines.append(
                "-- row-iterator subtrees: "
                + ", ".join(f"{n.label} ({n.reason})" for n in self.fallbacks)
            )
        report = self.report
        if report is None:
            return ["-- optimizer: off"] + tail_lines
        lines = [
            "-- cost: {:.0f} (unoptimized {:.0f}); explored {} plan{}{}".format(
                report.best_estimate.cost,
                report.original_estimate.cost,
                report.explored,
                "" if report.explored == 1 else "s",
                " [truncated]" if report.truncated else "",
            ),
            f"-- rules fired: {', '.join(report.fired) or 'none'}",
        ]
        active = [f for f in report.rule_trace if f.proposed]
        if active:
            lines.append(
                "-- rule trace: "
                + "; ".join(
                    f"{f.rule} proposed={f.proposed} kept={f.kept}"
                    for f in active
                )
            )
        return lines + tail_lines

    def _metrics_by_path(self) -> dict[str, dict]:
        if self.registry is None:
            return {}
        return self.registry.snapshot(include_time=True)

    def _render_node(
        self,
        node: PhysicalOperator,
        path: str,
        depth: int,
        metrics: dict[str, dict],
        lines: list[str],
    ) -> None:
        annotations = [f"est={format_rows(node.est_rows)}"]
        record = metrics.get(path)
        if record is not None:
            annotations.append(f"actual={format_rows(record['rows_out'])}")
            if record["executions"] != 1:
                annotations.append(f"execs={record['executions']}")
            for name, short in (
                ("groups_formed", "groups"),
                ("empty_groups_skipped", "empty"),
                ("partition_rows", "partition_rows"),
                ("index_probes", "probes"),
                ("comparisons", "cmp"),
            ):
                if record[name]:
                    annotations.append(f"{short}={record[name]}")
            annotations.append(f"time={record['elapsed_ns'] / 1e6:.1f}ms")
        lines.append(
            "{}{}  ({})".format("  " * depth, node.label(), ", ".join(annotations))
        )
        for index, child in enumerate(node.children()):
            self._render_node(
                child, join_path(path, str(index)), depth + 1, metrics, lines
            )

    # ------------------------------------------------------------------
    # JSON export (the CI trace artifact)
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        document: dict[str, Any] = {
            "sql": self.sql,
            "analyze": self.analyze,
            "plan": self._node_json(
                self.physical_plan, "", self._metrics_by_path()
            ),
        }
        if self.report is not None:
            report = self.report
            document["optimizer"] = {
                "cost": report.best_estimate.cost,
                "unoptimized_cost": report.original_estimate.cost,
                "explored": report.explored,
                "truncated": report.truncated,
                "fired": list(report.fired),
                "rule_trace": [f.to_dict() for f in report.rule_trace],
            }
        if self.plan_cache is not None:
            document["plan_cache"] = dict(self.plan_cache)
        document["row_iterator_subtrees"] = [
            {"op": note.label, "reason": note.reason} for note in self.fallbacks
        ]
        if self.counters is not None:
            document["work"] = self.counters.snapshot()
        if self.tracer is not None:
            document["trace"] = self.tracer.to_json()
        return document

    def _node_json(
        self, node: PhysicalOperator, path: str, metrics: dict[str, dict]
    ) -> dict:
        entry: dict[str, Any] = {
            "op": node.label(),
            "path": path,
            "est_rows": node.est_rows,
        }
        record = metrics.get(path)
        if record is not None:
            entry["metrics"] = {k: v for k, v in record.items() if k != "op"}
        children = [
            self._node_json(child, join_path(path, str(index)), metrics)
            for index, child in enumerate(node.children())
        ]
        if children:
            entry["children"] = children
        return entry

    def dumps(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)
