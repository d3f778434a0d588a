"""Tier-1 slice of the plan-cache differential fuzz profile.

The full sweep (600 cases, disjoint seed range) runs in CI's fuzz job;
this keeps a small always-on slice in tier-1 so a cache regression fails
fast locally. Every case runs cold (must miss), hot (must hit with
byte-identical rows/counters/metrics), and re-parameterized with fresh
same-type literals (must hit, rows identical to an uncached run),
through the compiled plan.
"""

from repro.fuzz import PROFILES, sweep

SEED = 40000  # same range CI sweeps, so local failures replay in CI
CASES = 30


def test_plancache_fuzz_slice():
    report = sweep(PROFILES["plancache"], seed=SEED, n=CASES)
    assert report.ok, report.summary()
    assert report.tally["checked"] == CASES
