"""The chaos harness itself: seeded sweeps hold the correct-rows-or-typed-
error invariant, and cases are fully determined by their seed."""

from __future__ import annotations

from repro.fuzz import PROFILES, sweep
from repro.fuzz.chaos import SCENARIOS, build_case


class TestCaseConstruction:
    def test_cases_are_deterministic(self):
        for seed in range(20):
            assert build_case(seed).describe() == build_case(seed).describe()

    def test_seeds_cover_every_scenario(self):
        seen = {build_case(seed).scenario for seed in range(80)}
        assert seen == set(SCENARIOS)

    def test_descriptions_are_json_serializable(self):
        import json

        for seed in range(20):
            json.dumps(build_case(seed).describe())


class TestSweep:
    def test_small_sweep_holds_the_invariant(self):
        # A bounded slice of what the CI chaos job runs at scale; any
        # failure here is a real engine bug (replay with the seed).
        report = sweep(PROFILES["chaos"], seed=0, n=15)
        assert report.cases == 15
        assert report.ok, [f.describe() for f in report.failures]

    def test_summary_mentions_scenarios(self):
        report = sweep(PROFILES["chaos"], seed=100, n=5)
        assert "5 cases" in report.summary()

    def test_merge_budget_cases_are_tallied(self):
        # Some spill-fail/clean-spill cases flush more than FAN_IN runs,
        # so the run writer's merge pass runs under the sweep too.
        report = sweep(PROFILES["chaos"], seed=0, n=40)
        assert report.ok, [f.describe() for f in report.failures]
        assert report.tally["merged-cases"] > 0
        assert "merged-cases=" in report.summary()
