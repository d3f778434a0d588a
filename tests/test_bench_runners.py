"""Smoke tests for the benchmark runner modules at tiny scale.

These execute the same code paths as ``python -m repro.bench fig8_speedup``
/ ``table1_rules`` but on minimal data with single repetitions, verifying
the harnesses end to end (not their absolute numbers).
"""

import json
from pathlib import Path

import pytest

from repro.bench.fig8 import format_rows, run_figure8
from repro.bench.table1 import format_summaries, run_sweep
from repro.storage import Catalog
from repro.workloads.rule_queries import TABLE1_SWEEPS, sweep_by_rule
from repro.workloads.tpch import TpchConfig, load_tpch


@pytest.fixture(scope="module")
def tiny_catalog() -> Catalog:
    catalog = Catalog()
    load_tpch(catalog, TpchConfig(scale=0.01))
    return catalog


class TestFigure8Runner:
    def test_produces_all_queries(self):
        rows = run_figure8(scale=0.01, repetitions=1)
        assert [row.query for row in rows] == ["Q1", "Q2", "Q3", "Q4"]
        for row in rows:
            assert row.baseline.rows == row.gapply_hash.rows

    def test_formatting(self):
        rows = run_figure8(scale=0.01, repetitions=1)
        text = format_rows(rows)
        assert "Figure 8" in text
        for name in ("Q1", "Q2", "Q3", "Q4"):
            assert name in text


    def test_work_matches_checked_in_baselines(self):
        """The deterministic half of the old CI bench gate: ``work`` is
        exact for a given scale, so any drift means a paper query lowered
        to a different plan or an operator counts differently."""
        path = Path(__file__).parent.parent / "benchmarks" / "baselines.json"
        baselines = json.loads(path.read_text())
        measured = {}
        for row in run_figure8(scale=baselines["scale"], repetitions=1):
            measured[f"{row.query}/baseline"] = {"work": row.baseline.work}
            measured[f"{row.query}/gapply_hash"] = {"work": row.gapply_hash.work}
        assert measured == baselines["cases"], (
            "Figure-8 work counters moved; if the plan change is intended, "
            f"set the cases of {path.name} to:\n{json.dumps(measured, indent=2)}"
        )


class TestTable1Runner:
    def test_selection_sweep(self, tiny_catalog):
        summary = run_sweep(
            tiny_catalog, sweep_by_rule("selection_before_gapply"), repetitions=1
        )
        assert summary.effects
        assert all(effect.fired for effect in summary.effects)
        assert summary.maximum_benefit >= summary.average_benefit * 0.99

    def test_invariant_sweep_fires(self, tiny_catalog):
        summary = run_sweep(
            tiny_catalog, sweep_by_rule("invariant_grouping"), repetitions=1
        )
        assert any(effect.fired for effect in summary.effects)

    def test_formatting_includes_paper_columns(self, tiny_catalog):
        summary = run_sweep(
            tiny_catalog, sweep_by_rule("gapply_to_groupby"), repetitions=1
        )
        text = format_summaries([summary])
        assert "1.30 / 1.19 / 1.19" in text

    def test_every_sweep_runs(self, tiny_catalog):
        for sweep in TABLE1_SWEEPS:
            rule = sweep.rule_name
            parameter, sql = sweep.instances()[0]
            # one instance per sweep keeps this a smoke test
            from repro.bench.harness import measure_rule_effect
            from repro.optimizer.rules import rule_by_name

            effect = measure_rule_effect(
                tiny_catalog, sql, rule_by_name(rule), parameter, repetitions=1
            )
            assert effect.without_rule.rows == effect.with_rule.rows
