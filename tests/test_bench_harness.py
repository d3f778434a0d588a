"""Tests for the benchmark harness (measurement and Table-1 machinery)."""

import pytest

from repro.bench.harness import (
    Measurement,
    RuleEffect,
    RuleSummary,
    bind,
    lower,
    measure_physical,
    measure_rule_effect,
    measure_sql,
    rules_without,
    traditional_rules,
    write_measurements_json,
)
from repro.optimizer.rules import DEFAULT_RULES, rule_by_name


class TestMeasurement:
    def test_ratios(self):
        slow = Measurement(2.0, 200, 10)
        fast = Measurement(1.0, 100, 10)
        assert slow.ratio_to(fast) == pytest.approx(2.0)
        assert slow.work_ratio_to(fast) == pytest.approx(2.0)

    def test_zero_denominators(self):
        m = Measurement(1.0, 100, 10)
        zero = Measurement(0.0, 0, 0)
        assert m.ratio_to(zero) == float("inf")
        assert m.work_ratio_to(zero) == float("inf")

    def test_measure_physical_deterministic_work(self, parts_db):
        plan = lower(
            parts_db.catalog, bind(parts_db.catalog, "select count(*) from part")
        )
        a = measure_physical(plan, repetitions=2)
        b = measure_physical(plan, repetitions=2)
        assert a.work == b.work
        assert a.rows == b.rows == 1

    def test_non_finite_numbers_are_not_written(self, tmp_path):
        """A run that measured nothing has ``elapsed == inf``; that is an
        error, not an ``Infinity`` token in a file that claims to be JSON."""
        unmeasured = Measurement(float("inf"), 0, 0)
        with pytest.raises(ValueError):
            write_measurements_json(tmp_path / "m.json", [("case", unmeasured)])


class TestRuleSets:
    def test_rules_without_excludes(self):
        remaining = rules_without("selection_before_gapply")
        assert len(remaining) == len(DEFAULT_RULES) - 1
        assert all(r.name != "selection_before_gapply" for r in remaining)

    def test_traditional_rules_subset(self):
        names = {r.name for r in traditional_rules()}
        assert names == {"select_pushdown", "narrow_prune", "collapse_project"}


class TestMeasureSql:
    def test_measures_rows(self, parts_db):
        m = measure_sql(parts_db.catalog, "select p_partkey from part", repetitions=1)
        assert m.rows == 12
        assert m.elapsed > 0


class TestRuleEffect:
    def test_benefit_computation(self):
        effect = RuleEffect(
            parameter=1,
            without_rule=Measurement(4.0, 400, 5, 100, 10, 1000),
            with_rule=Measurement(2.0, 100, 5, 50, 5, 100),
            fired=True,
        )
        assert effect.benefit == pytest.approx(2.0)
        assert effect.work_benefit == pytest.approx(4.0)
        assert effect.cells_benefit == pytest.approx(10.0)
        assert effect.memory_benefit == pytest.approx(2.0)

    def test_infinite_memory_benefit(self):
        effect = RuleEffect(
            parameter=1,
            without_rule=Measurement(1.0, 10, 5, 0, 10, 10),
            with_rule=Measurement(1.0, 10, 5, 0, 0, 0),
            fired=True,
        )
        assert effect.memory_benefit == float("inf")
        assert effect.cells_benefit == float("inf")

    def test_measure_rule_effect_on_real_query(self, parts_db):
        sql = (
            "select gapply(select p_name from g where p_brand = 'A') "
            "from partsupp, part where ps_partkey = p_partkey "
            "group by ps_suppkey : g"
        )
        effect = measure_rule_effect(
            parts_db.catalog,
            sql,
            rule_by_name("selection_before_gapply"),
            parameter="A",
            repetitions=1,
        )
        assert effect.fired
        assert effect.without_rule.rows == effect.with_rule.rows

    def test_non_firing_rule_reports_unity(self, parts_db):
        effect = measure_rule_effect(
            parts_db.catalog,
            "select p_name from part",
            rule_by_name("gapply_to_groupby"),
            parameter=None,
            repetitions=1,
        )
        assert not effect.fired
        assert effect.benefit == 1.0


class TestRuleSummary:
    def make_effect(self, benefit, fired=True):
        return RuleEffect(
            parameter=benefit,
            without_rule=Measurement(benefit, int(benefit * 100), 1),
            with_rule=Measurement(1.0, 100, 1),
            fired=fired,
        )

    def test_statistics(self):
        summary = RuleSummary(
            "r",
            "Rule",
            (
                self.make_effect(4.0),
                self.make_effect(2.0),
                self.make_effect(0.5),
            ),
        )
        assert summary.maximum_benefit == pytest.approx(4.0)
        assert summary.average_benefit == pytest.approx((4.0 + 2.0 + 0.5) / 3)
        assert summary.average_over_wins == pytest.approx(3.0)
        assert not summary.always_wins

    def test_unfired_effects_excluded(self):
        summary = RuleSummary(
            "r", "Rule", (self.make_effect(3.0), self.make_effect(9.0, fired=False))
        )
        assert summary.maximum_benefit == pytest.approx(3.0)

    def test_empty_summary(self):
        summary = RuleSummary("r", "Rule", ())
        assert summary.maximum_benefit == 1.0
        assert summary.average_benefit == 1.0
        assert summary.average_over_wins == 1.0


class TestHarnessModules:
    def test_fig8_paper_constants_cover_all_queries(self):
        from repro.bench.fig8 import PAPER_FIGURE8_RATIOS
        from repro.workloads.queries import PAPER_QUERIES

        assert set(PAPER_FIGURE8_RATIOS) == {q.name for q in PAPER_QUERIES}

    def test_table1_paper_constants_cover_all_sweeps(self):
        from repro.bench.table1 import PAPER_TABLE1
        from repro.workloads.rule_queries import TABLE1_SWEEPS

        assert set(PAPER_TABLE1) == {s.rule_name for s in TABLE1_SWEEPS}

    def test_fig8_row_formatting(self, tpch_catalog):
        from repro.bench.fig8 import Fig8Row, format_rows

        row = Fig8Row(
            "Q1",
            Measurement(2.0, 200, 10),
            Measurement(1.0, 100, 10),
            Measurement(1.5, 150, 10),
        )
        text = format_rows([row])
        assert "Q1" in text and "2.00x" in text

    def test_table1_formatting(self):
        from repro.bench.table1 import format_summaries

        summary = RuleSummary(
            "selection_before_gapply",
            "Placing Selection Before GApply",
            (
                RuleEffect(
                    905.0,
                    Measurement(2.0, 200, 5),
                    Measurement(1.0, 100, 5),
                    True,
                ),
            ),
        )
        text = format_summaries([summary])
        assert "Placing Selection Before GApply" in text
        assert "732.94" in text  # the paper column
