"""Cardinality-estimation accuracy ratchet.

Runs EXPLAIN ANALYZE over the fuzz generator's seeded schemas (seed 0,
n=200 — deterministic) and compares the planner's ``est_rows`` stamps to
the actual per-execution row counts via the q-error
``max((est+1)/(actual+1), (actual+1)/(est+1))`` (the +1 smoothing keeps
empty results finite).

The seeds include the generator's join-region cases (3-4 table chains and
stars) and its keyless-join cases (theta and comma joins). The bounds
below are a *ratchet*: they sit just above today's measured distribution
(root median 1.50, p90 4.0, max 26.3; per-node max 41.0).
An estimator regression pushes a quantile past its bound and fails CI; an
estimator improvement is the cue to tighten the bound in the same diff.
"""

from __future__ import annotations

import statistics

from repro.fuzz.generator import generate_case

SEED = 0
CASES = 200

ROOT_MEDIAN_BOUND = 2.0
ROOT_P90_BOUND = 4.5
ROOT_MAX_BOUND = 30.0
NODE_MAX_BOUND = 45.0


def q_error(est: float, actual: float) -> float:
    return max((est + 1.0) / (actual + 1.0), (actual + 1.0) / (est + 1.0))


def collect_q_errors() -> tuple[list[float], list[float]]:
    """(root q-errors, all-node q-errors) across the seeded cases.

    ``actual`` is normalized per execution: operators inside a per-group
    plan run once per group, while ``est_rows`` estimates a single run.
    """
    roots: list[float] = []
    nodes: list[float] = []
    for index in range(CASES):
        case = generate_case(SEED + index)
        explanation = case.db.build().sql(case.sql, explain="analyze")
        snapshot = explanation.registry.snapshot()

        def walk(node, path: str) -> None:
            record = snapshot.get(path)
            if node.est_rows is not None and record is not None:
                executions = max(record["executions"], 1)
                actual = record["rows_out"] / executions
                q = q_error(node.est_rows, actual)
                nodes.append(q)
                if path == "":
                    roots.append(q)
            for child_index, child in enumerate(node.children()):
                child_path = (
                    f"{path}.{child_index}" if path else str(child_index)
                )
                walk(child, child_path)

        walk(explanation.physical_plan, "")
    return roots, nodes


def test_q_error_stays_within_ratchet():
    roots, nodes = collect_q_errors()
    # Every case must produce an estimated, executed root.
    assert len(roots) == CASES
    roots.sort()
    summary = (
        f"root median={statistics.median(roots):.2f} "
        f"p90={roots[int(0.9 * len(roots))]:.2f} max={roots[-1]:.2f}; "
        f"node max={max(nodes):.2f} over {len(nodes)} operators"
    )
    assert statistics.median(roots) <= ROOT_MEDIAN_BOUND, summary
    assert roots[int(0.9 * len(roots))] <= ROOT_P90_BOUND, summary
    assert roots[-1] <= ROOT_MAX_BOUND, summary
    assert max(nodes) <= NODE_MAX_BOUND, summary
