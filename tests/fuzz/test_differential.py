"""Tier-1 differential fuzzing: seeded cases plus corpus replay.

The seeded sweep is the cheap always-on slice of the fuzzer (the CI
``fuzz`` job and ``python -m repro.fuzz`` run much larger sweeps); the
corpus replay guards every bug the fuzzer has ever minimized — each
reproducer in ``tests/fuzz_corpus/`` must stay clean forever.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import PlanError
from repro.fuzz import PROFILES, sweep
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import generate_case
from repro.fuzz.planspace import plan_configurations, profile_configurations
from repro.fuzz.runner import run_case

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"


class TestSeededSweep:
    def test_200_cases_no_divergence(self):
        report = sweep(PROFILES["quick"], seed=0, n=200, shrink=False)
        assert report.ok, report.summary()
        assert report.cases == 200
        # The oracle must actually engage: skips should be the exception.
        assert report.tally["oracle-checked"] >= 190
        assert report.tally["plan-space-runs"] > 0

    def test_generation_is_deterministic(self):
        first = generate_case(1234)
        second = generate_case(1234)
        assert first.sql == second.sql
        assert first.db.tables[0].rows == second.db.tables[0].rows

    def test_distinct_seeds_vary(self):
        queries = {generate_case(seed).sql for seed in range(20)}
        assert len(queries) > 15


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
