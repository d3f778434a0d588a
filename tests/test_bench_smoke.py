"""Every benchmark script must expose a working ``--smoke`` mode.

The CI benchmark-smoke job runs ``python benchmarks/bench_*.py --smoke
--out <artifact>.json`` for each script and uploads the JSON; this suite
is the tripwire that keeps that job honest: scripts are discovered by
glob (a new benchmark can't ship without smoke support), each must exit 0
inside the smoke budget, and each must emit well-formed measurement
records in the harness JSON format.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARKS = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))

#: Per-script wall budget, seconds. Smoke runs take well under 10s each on
#: a laptop; the margin absorbs slow shared CI runners without letting a
#: genuinely broken (hanging, full-scale) script slip through.
SMOKE_BUDGET = 90.0

REQUIRED_RECORD_KEYS = {
    "name",
    "elapsed",
    "work",
    "rows",
}


def _run_script(script: Path, *args: str, timeout: float):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=REPO_ROOT,
    )


def test_benchmark_scripts_discovered():
    names = [script.name for script in BENCHMARKS]
    assert "bench_fig8_speedup.py" in names
    assert len(BENCHMARKS) >= 7


@pytest.mark.parametrize("script", BENCHMARKS, ids=lambda s: s.stem)
def test_smoke_mode_completes_under_budget(script, tmp_path):
    out = tmp_path / f"{script.stem}.json"
    start = time.perf_counter()
    proc = _run_script(
        script, "--smoke", "--out", str(out), timeout=SMOKE_BUDGET
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, (
        f"{script.name} --smoke failed:\n{proc.stdout}\n{proc.stderr}"
    )
    assert elapsed < SMOKE_BUDGET

    document = json.loads(out.read_text())
    assert document["meta"]["smoke"] is True
    measurements = document["measurements"]
    assert measurements, f"{script.name} emitted no measurements"
    for record in measurements:
        assert REQUIRED_RECORD_KEYS <= set(record), (
            f"{script.name} record missing keys: "
            f"{REQUIRED_RECORD_KEYS - set(record)}"
        )
        assert record["elapsed"] >= 0


@pytest.mark.parametrize("script", BENCHMARKS, ids=lambda s: s.stem)
def test_help_documents_smoke_flag(script):
    proc = _run_script(script, "--help", timeout=30)
    assert proc.returncode == 0
    assert "--smoke" in proc.stdout
