"""Tier-1 slice of the plan-cache differential fuzz profile.

The full sweep (600 cases, disjoint seed range) runs in CI's fuzz job;
this keeps a small always-on slice in tier-1 so a cache regression fails
fast locally. Every case runs cold (must miss), hot (must hit with
byte-identical rows/counters/metrics), and re-parameterized with fresh
same-type literals (must hit, rows identical to an uncached run),
through the compiled plan.
"""

from repro.fuzz.plancache import run_plancache_fuzz

SEED = 40000  # same range CI sweeps, so local failures replay in CI
CASES = 30


def test_plancache_fuzz_slice():
    report = run_plancache_fuzz(seed=SEED, n=CASES)
    details = "\n\n".join(
        f"seed {f.seed} [{f.stage}]\n{f.sql}\n{f.detail}"
        for f in report.failures
    )
    assert report.ok, f"{report.summary()}\n{details}"
    assert report.checked == CASES
