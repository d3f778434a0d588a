"""Every registered experiment must run in ``--smoke`` mode.

The CI benchmark-smoke job runs ``python -m repro.bench all --smoke --out
bench-artifacts`` and uploads one JSON document per experiment; this
suite is the tripwire that keeps that job honest: experiments come from
the registry (a new one can't ship without smoke support), each must exit
0 inside the smoke budget, emit well-formed measurement records in the
harness JSON format, and emit exactly the case names pinned below — so a
renamed or dropped case fails here, not in whatever reads the artifacts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import ablations
from repro.bench.__main__ import EXPERIMENTS, main
from repro.bench.serve_throughput import CONCURRENCIES, OPS_PER_CLIENT, SKEW_OPS

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-experiment wall budget, seconds. Smoke runs take well under 10s each
#: on a laptop; the margin absorbs slow shared CI runners without letting a
#: genuinely broken (hanging, full-scale) experiment slip through.
SMOKE_BUDGET = 90.0

REQUIRED_RECORD_KEYS = {
    "name",
    "elapsed",
    "work",
    "rows",
}

#: The case names each experiment emits, in order.
CASE_NAMES = {
    "fig8_speedup": [
        "Q1/baseline", "Q1/gapply_hash", "Q1/gapply_sort",
        "Q2/baseline", "Q2/gapply_hash", "Q2/gapply_sort",
        "Q3/baseline", "Q3/gapply_hash", "Q3/gapply_sort",
        "Q4/baseline", "Q4/gapply_hash", "Q4/gapply_sort",
    ],
    "table1_rules": [
        "selection_before_gapply/without", "selection_before_gapply/with",
        "projection_before_gapply/without", "projection_before_gapply/with",
        "gapply_to_groupby/without", "gapply_to_groupby/with",
        "exists_group_selection/without", "exists_group_selection/with",
        "aggregate_group_selection/without", "aggregate_group_selection/with",
        "invariant_grouping/without", "invariant_grouping/with",
    ],
    "client_simulation": [
        "q4/native", "q4/simulated_total", "q4/sim_outer",
        "q4/sim_partition", "q4/sim_overestimate", "q4/sim_execution",
    ],
    "partitioning": ["Q1/hash", "Q1/sort", "Q2/hash", "Q2/sort"],
    "index_ablation": [
        "rule/indexes", "rule/no_indexes", "no_rule/indexes", "no_rule/no_indexes",
    ],
    "spill": [
        "Q4-hash-memory", "Q4-hash-spill", "Q4-sort-memory", "Q4-sort-spill",
    ],
    "xml_publishing": [
        "Q1/union", "Q1/gapply", "Q2/union", "Q2/gapply",
        "Q1/union/stream", "Q1/gapply/stream",
        "Q2/union/stream", "Q2/gapply/stream",
        "stream-mem/1x", "stream-mem/10x",
    ],
    "durability": [
        "commit-fsync-always", "commit-fsync-never",
        "recover-log-short", "recover-log-long", "recover-checkpointed",
        "group-commit-always-w1", "group-commit-always-w4",
        "group-commit-always-w16", "group-commit-group-w1",
        "group-commit-group-w4", "group-commit-group-w16",
    ],
    "serve_throughput": [
        "Q1-service-c1", "Q1-service-c4", "Q1-service-c8",
        "Q1-service-overload-c8",
        "skewed-shapes-cache-on", "skewed-shapes-cache-off",
    ],
}


def check_carried_assertions(name: str, records: list[dict]) -> None:
    """The non-timing assertions of the deleted timing suites under ``benchmarks/``."""
    if name in ("fig8_speedup", "partitioning", "xml_publishing"):
        assert all(record["rows"] > 0 for record in records)
    elif name == "client_simulation":
        assert records[1]["rows"] > 0  # the simulated protocol produced output
    elif name == "spill":  # a spilled plan returns what the in-memory plan does
        assert len({record["rows"] for record in records}) == 1
    elif name == "durability":  # every commit is acknowledged / recovered
        assert all(record["rows"] == record["work"] for record in records)
    elif name == "serve_throughput":
        # Outside the overload case the default queue depth absorbs the
        # load: every query completes, none is shed.
        completed = {f"Q1-service-c{n}": n * OPS_PER_CLIENT for n in CONCURRENCIES}
        completed["skewed-shapes-cache-on"] = SKEW_OPS
        completed["skewed-shapes-cache-off"] = SKEW_OPS
        for record in records:
            if record["name"] in completed:
                assert record["work"] == completed[record["name"]]
                assert record["metrics"].get("shed", 0) == 0


#: Test ids keep the ``bench_`` prefix they had when every experiment was a
#: ``benchmarks/bench_<name>.py`` script, so the same tests keep their names.
per_experiment = pytest.mark.parametrize(
    "name", list(EXPERIMENTS), ids=[f"bench_{name}" for name in EXPERIMENTS]
)


def test_registry_holds_the_nine_experiments():
    assert list(EXPERIMENTS) == list(CASE_NAMES)


@per_experiment
def test_smoke_mode_completes_under_budget(name, tmp_path):
    start = time.perf_counter()
    assert main([name, "--smoke", "--out", str(tmp_path)]) == 0
    assert time.perf_counter() - start < SMOKE_BUDGET

    document = json.loads((tmp_path / f"{name}.json").read_text())
    meta = document["meta"]
    assert meta["benchmark"] == name
    assert meta["smoke"] is True
    assert (meta["scale"], meta["repetitions"]) == (0.02, 1)
    measurements = document["measurements"]
    assert [record["name"] for record in measurements] == CASE_NAMES[name]
    for record in measurements:
        assert REQUIRED_RECORD_KEYS <= set(record), (
            f"{name} record missing keys: {REQUIRED_RECORD_KEYS - set(record)}"
        )
        assert record["elapsed"] >= 0
    check_carried_assertions(name, measurements)


@pytest.fixture(scope="module")
def help_text() -> str:
    """``python -m repro.bench --help``, run once: the one check that the
    module is an entry point outside this process."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--help"],
        capture_output=True,
        text=True,
        timeout=30,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@per_experiment
def test_help_documents_smoke_flag(name, help_text):
    assert "--smoke" in help_text
    assert name in help_text


@pytest.mark.parametrize(
    "flag,value",
    [("--repetitions", "0"), ("--repetitions", "-3"), ("--scale", "0"), ("--scale", "-1")],
)
def test_out_of_range_values_are_usage_errors(flag, value, tmp_path, capsys):
    """``--repetitions 0`` used to exit 0 and write ``"elapsed": Infinity``."""
    with pytest.raises(SystemExit) as exit_info:
        main(["partitioning", "--smoke", flag, value, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unknown_experiment_lists_the_registered_ones(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fig9", "--smoke"])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err
    assert "fig9" in message
    for name in EXPERIMENTS:
        assert name in message


def test_spill_experiment_refuses_to_time_a_plan_that_did_not_spill(monkeypatch):
    """If the threshold stopped forcing a spill, the 'spill' arms would
    silently measure the in-memory path."""
    monkeypatch.setattr(ablations, "SPILL_THRESHOLD", 10**9)
    with pytest.raises(RuntimeError, match="did not force a spill"):
        ablations.spill_cases(0.02, 1)
