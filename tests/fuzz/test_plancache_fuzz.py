"""Tier-1 slice of the plan-cache model's seeded sweep.

The full sweep (600 cases, disjoint seed range) runs in CI's fuzz job;
this keeps a small always-on slice in tier-1 so a cache regression fails
fast locally. Every case draws its actions — runs with fresh same-type
literals, prepared executions, writes, snapshots, clears —
online from the model, and every outcome must be the model's.
"""

from repro.fuzz import PROFILES, sweep
from repro.fuzz.plancache import EVENTS, KINDS

SEED = 40000  # same range CI sweeps, so local failures replay in CI
CASES = 30


def test_plancache_fuzz_slice():
    report = sweep(PROFILES["plancache"], seed=SEED, n=CASES)
    assert report.ok, report.summary()
    assert report.tally["checked"] == CASES
    assert {*KINDS, *EVENTS} <= report.tally.keys()
