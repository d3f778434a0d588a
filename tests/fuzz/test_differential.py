"""Tier-1 differential fuzzing: seeded cases plus corpus replay.

The seeded sweep is the cheap always-on slice of the fuzzer (the CI
``fuzz`` job and ``python -m repro.fuzz`` run much larger sweeps); the
corpus replay guards every bug the fuzzer has ever minimized — each
reproducer in ``tests/fuzz_corpus/`` must stay clean forever.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from repro.errors import PlanError, ReproError
from repro.execution.context import Counters, ExecutionContext
from repro.execution.vector.compiler import compile_plan
from repro.fuzz import PROFILES, sweep
from repro.fuzz import generator
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import (
    EXPRESSION_AGGREGATE_SHARE,
    JOIN_REGION_SHARE,
    expression_aggregates,
    generate_case,
    is_nonfinite,
)
from repro.fuzz.oracle import compare_multisets
from repro.fuzz.planspace import plan_configurations, profile_configurations
from repro.fuzz.runner import run_case
from repro.observe.metrics import MetricsRegistry

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"


class TestSeededSweep:
    def test_200_cases_no_divergence(self):
        report = sweep(PROFILES["quick"], seed=0, n=200, shrink=False)
        assert report.ok, report.summary()
        assert report.cases == 200
        # The oracle must actually engage: skips should be the exception.
        assert report.tally["oracle-checked"] >= 190
        assert report.tally["plan-space-runs"] > 0
        # Join-region cases reach the join-order pass and it reorders some.
        assert report.tally["join-reordered"] > 0
        assert report.tally["expression-aggregates"] > 0
        assert report.tally["keyless-joins"] > 0

    def test_generation_is_deterministic(self):
        first = generate_case(1234)
        second = generate_case(1234)
        assert first.sql == second.sql
        assert first.db.tables[0].rows == second.db.tables[0].rows

    def test_distinct_seeds_vary(self):
        queries = {generate_case(seed).sql for seed in range(20)}
        assert len(queries) > 15

    def test_nonfinite_draws_leave_other_cases_alone(self):
        nonfinite = 0
        for seed in range(60):
            case = generate_case(seed, nonfinite=True)
            if is_nonfinite(case.db):
                nonfinite += 1
                continue
            plain = generate_case(seed)
            assert case.sql == plain.sql
            assert [t.rows for t in case.db.tables] == [
                t.rows for t in plain.db.tables
            ]
        assert 0 < nonfinite < 30
        assert not any(is_nonfinite(generate_case(seed).db) for seed in range(60))

    def test_join_region_draws_leave_other_cases_alone(self, monkeypatch):
        cases = [generate_case(seed) for seed in range(60)]
        # With no join-region share, every seed draws its other case.
        monkeypatch.setattr(generator, "JOIN_REGION_SHARE", 0.0)
        regions = 0
        for seed, case in enumerate(cases):
            if random.Random(f"joins:{seed}").random() < JOIN_REGION_SHARE:
                regions += 1
                assert len(case.db.tables) in (3, 4)
                assert len(case.db.foreign_keys) == len(case.db.tables) - 1
                assert all(table.name in case.sql for table in case.db.tables)
                continue
            plain = generate_case(seed)
            assert case.sql == plain.sql
            assert [t.rows for t in case.db.tables] == [
                t.rows for t in plain.db.tables
            ]
        assert 0 < regions < 30

    def test_expression_aggregate_draws_leave_other_cases_alone(self, monkeypatch):
        cases = [generate_case(seed) for seed in range(60)]
        # With no expression-aggregate share, every seed draws its other case.
        monkeypatch.setattr(generator, "EXPRESSION_AGGREGATE_SHARE", 0.0)
        drawn = 0
        for seed, case in enumerate(cases):
            plain = generate_case(seed)
            assert not expression_aggregates(plain.query)
            if random.Random(f"exprs:{seed}").random() < EXPRESSION_AGGREGATE_SHARE:
                drawn += expression_aggregates(case.query)
                continue
            assert case.sql == plain.sql
            assert [t.rows for t in case.db.tables] == [
                t.rows for t in plain.db.tables
            ]
        assert 0 < drawn < 30

    def test_keyless_join_draws_leave_other_cases_alone(self, monkeypatch):
        cases = [generate_case(seed) for seed in range(100)]
        # Keeping every two-table join's equality, every seed draws its
        # other case.
        monkeypatch.setattr(
            generator._QueryGenerator, "join_condition", lambda self, equality: equality
        )
        keyless = 0
        for seed, case in enumerate(cases):
            plain = generate_case(seed)
            assert [t.rows for t in case.db.tables] == [
                t.rows for t in plain.db.tables
            ]
            # The keyless rng picks one case in five.
            if random.Random(f"keyless:{seed}").random() < 0.2:
                keyless += case.sql != plain.sql
                continue
            assert case.sql == plain.sql
        assert 0 < keyless < 20

    def test_every_nan_normalizes_to_one_token(self):
        nan, other = float("nan"), float("inf") - float("inf")
        assert compare_multisets([(nan, 1)], [(other, 1)]) is None
        assert compare_multisets([(nan,)], [(float("inf"),)]) is not None


def _outcome(plan, batch_size: int | None):
    """``plan`` on the row iterators (``batch_size`` None) or compiled:
    its rows by ``repr`` (NaN == NaN only so) or its typed error, its
    counters and its metrics snapshot."""
    counters = Counters()
    metrics = MetricsRegistry()
    metrics.register_plan(plan)
    ctx = ExecutionContext(counters=counters, metrics=metrics)
    try:
        if batch_size is None:
            rows = repr(list(plan.execute(ctx)))
        else:
            rows = repr(compile_plan(plan, batch_size=batch_size).run(ctx))
    except ReproError as error:
        rows = (type(error), str(error))
    return rows, vars(counters), metrics.snapshot()


class TestCounterIdentity:
    """DESIGN §12.3's counter identity over generated plans: the engine
    profile compares rows only."""

    @pytest.mark.parametrize("batch_size", [128, 3])
    def test_compiled_counts_what_the_row_iterators_count(self, batch_size):
        for seed in range(20000, 20300):
            case = generate_case(seed, True)
            db = case.db.build()
            plan = db.sql(case.sql, explain="plan").physical_plan
            assert _outcome(plan, batch_size) == _outcome(plan, None), (
                seed, case.sql
            )


class TestCorpusReplay:
    """Every minimized reproducer must pass the full differential check."""

    def _cases(self):
        cases = load_corpus(CORPUS_DIR)
        assert cases, f"fuzz corpus missing at {CORPUS_DIR}"
        return cases

    def test_corpus_nonempty(self):
        assert len(self._cases()) >= 2

    @pytest.mark.parametrize(
        "name",
        [path.name for path in sorted(CORPUS_DIR.glob("*.json"))],
    )
    def test_reproducer_stays_clean(self, name):
        case = next(c for c in self._cases() if c.path.name == name)
        failure = run_case(case.to_fuzz_case(), plan_configurations(full=True))
        assert failure is None, str(failure)


class TestProfiles:
    def test_quick_is_subset_of_full(self):
        quick = {c.name for c in profile_configurations("quick")}
        full = {c.name for c in profile_configurations("full")}
        assert quick < full

    def test_full_covers_every_rule(self):
        from repro.optimizer.rules import DEFAULT_RULES

        names = {c.name for c in profile_configurations("full")}
        for rule in DEFAULT_RULES:
            assert f"no-{rule.name}" in names

    def test_unknown_profile_rejected(self):
        with pytest.raises(PlanError):
            profile_configurations("nope")
