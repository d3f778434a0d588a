"""Concurrent chaos: the tier-1 slice of what the CI serve-stress job
runs at scale. Every seed's multi-threaded workload must end in
snapshot-consistent rows or typed errors — never a torn read, wrong
answer, hang, or leaked resource."""

from __future__ import annotations

import json

from repro.fuzz import Failure, sweep
from repro.fuzz.chaos import (
    CONCURRENT_SCENARIOS,
    build_concurrent_case,
    serve_stress_profile,
)


class TestCaseConstruction:
    def test_cases_are_deterministic(self):
        for seed in range(15):
            assert (
                build_concurrent_case(seed).describe()
                == build_concurrent_case(seed).describe()
            )

    def test_seeds_cover_every_scenario(self):
        seen = {
            build_concurrent_case(seed).scenario
            for seed in range(len(CONCURRENT_SCENARIOS))
        }
        assert seen == set(CONCURRENT_SCENARIOS)

    def test_descriptions_are_json_serializable(self):
        for seed in range(10):
            json.dumps(build_concurrent_case(seed).describe())


class TestConcurrentSweep:
    def test_small_sweep_holds_the_invariant(self):
        # One seed per scenario, modest thread count: the bounded tier-1
        # slice of the CI job's 100-seed, 16-thread sweep. Any failure
        # here is a real concurrency bug (replay with the seed).
        report = sweep(serve_stress_profile(threads=6, ops_per_thread=4), seed=0, n=5)
        assert report.cases == 5
        assert report.ok, [f.describe() for f in report.failures]
        assert set(report.tally) == set(CONCURRENT_SCENARIOS)

    def test_higher_seeds_also_hold(self):
        report = sweep(
            serve_stress_profile(threads=4, ops_per_thread=3), seed=40, n=5
        )
        assert report.ok, [f.describe() for f in report.failures]

    def test_failures_would_carry_the_case_shape(self):
        # The report plumbing: a (synthetic) failure serializes with the
        # full case for replay.
        case = build_concurrent_case(3)
        failure = Failure(case.seed, "serve-stress", "synthetic", case)
        described = failure.describe()
        assert described["detail"] == "synthetic"
        assert described["scenario"] == case.scenario
        assert described["threads"] == case.threads
