"""The serve-stress sweep: the tier-1 slice of what the CI job runs at
scale. Every seed's multi-threaded workload must reconcile with the
service model (:mod:`repro.fuzz.service`) — never a torn read, wrong
answer, hang, or leaked resource."""

from __future__ import annotations

import json

from repro.fuzz import Failure, sweep
from repro.fuzz.service import SCENARIOS, build_stress_case, serve_stress_profile


class TestCaseConstruction:
    def test_cases_are_deterministic(self):
        for seed in range(15):
            assert build_stress_case(seed).describe() == build_stress_case(seed).describe()

    def test_seeds_cover_every_scenario(self):
        assert {build_stress_case(seed).scenario for seed in range(len(SCENARIOS))} == set(
            SCENARIOS
        )

    def test_descriptions_are_json_serializable(self):
        for seed in range(10):
            json.dumps(build_stress_case(seed).describe())


class TestConcurrentSweep:
    def test_small_sweep_holds_the_invariant(self):
        # One seed per scenario, modest thread count: the bounded tier-1
        # slice of the CI job's 100-seed, 16-thread sweep. Any failure
        # here is a real concurrency bug (replay with the seed).
        n = len(SCENARIOS)
        report = sweep(serve_stress_profile(threads=6, ops_per_thread=4), seed=0, n=n)
        assert report.cases == n
        assert report.ok, [f.describe() for f in report.failures]
        assert set(SCENARIOS) <= set(report.tally)

    def test_higher_seeds_also_hold(self):
        report = sweep(serve_stress_profile(threads=4, ops_per_thread=3), seed=40, n=5)
        assert report.ok, [f.describe() for f in report.failures]

    def test_failures_would_carry_the_case_shape(self):
        # A (synthetic) failure serializes with the full case for replay.
        case = build_stress_case(3)
        described = Failure(case.seed, "serve-stress", "synthetic", case).describe()
        assert described["detail"] == "synthetic"
        assert (described["scenario"], described["threads"]) == (case.scenario, case.threads)
