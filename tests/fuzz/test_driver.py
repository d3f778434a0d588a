"""The one fuzz driver: what `sweep` promises under every profile — an
untyped exception is a recorded, shrunk, persisted failure; reproducers of
different profiles share a directory; the CLI reaches every profile."""

from __future__ import annotations

import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

import repro.fuzz
import repro.serve.__main__
from repro.fuzz import PROFILES, Failure, plancache, sweep
from repro.fuzz.__main__ import main
from repro.fuzz.chaos import build_case
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generator import generate_case
from repro.fuzz.xmlpub import load_xmlpub_corpus

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus"


def _rows(case) -> int:
    return sum(len(table.rows) for table in case.db.tables)


class TestCrashIsAFailure:
    def test_untyped_exception_is_recorded_shrunk_and_saved(self, tmp_path):
        visited = []

        def check(case, tally):
            visited.append(case.seed)
            if case.seed == 2:
                raise IndexError("list index out of range")
            return None

        messages = []
        report = sweep(
            replace(PROFILES["quick"], check=check),
            seed=0,
            n=5,
            corpus_dir=tmp_path,
            progress=messages.append,
        )
        assert report.cases == 5 and {3, 4} <= set(visited)
        (failure,) = report.failures
        assert (failure.seed, failure.kind) == (2, "crash")
        assert failure.detail.startswith("IndexError: list index out of range")
        assert "in check" in failure.detail  # the last traceback frames
        assert any("seed 2" in m and "IndexError" in m for m in messages)
        # Shrunk while still raising IndexError, and replayable from disk.
        assert _rows(failure.case) < _rows(generate_case(2))
        (path,) = report.corpus_paths
        (saved,) = load_corpus(tmp_path)
        assert saved.path == path and saved.kind == "crash"

    def test_shrinking_preserves_the_exception_type(self):
        def check(case, tally):
            if _rows(case) > 3:
                raise IndexError("big")
            raise KeyError("small")

        report = sweep(replace(PROFILES["quick"], check=check), 7, 1)
        (failure,) = report.failures
        assert failure.detail.startswith("IndexError") and _rows(failure.case) > 3

    def test_crash_while_generating_keeps_the_seed(self, tmp_path):
        def generate(seed):
            raise ZeroDivisionError(f"seed {seed}")

        report = sweep(
            replace(PROFILES["chaos"], generate=generate),
            seed=9,
            n=3,
            stop_after=2,
            corpus_dir=tmp_path,
        )
        assert [f.seed for f in report.failures] == [9, 10]  # stop_after
        assert all(f.kind == "crash" and f.case is None for f in report.failures)
        assert all(p.name.startswith("fuzz-chaos-failure-") for p in report.corpus_paths)


class TestOneWriterForEveryProfile:
    def test_plancache_failure_is_a_minimized_sql_reproducer(
        self, tmp_path, monkeypatch
    ):
        def diverge(kind, cached, reference):
            hit = cached.plan_cache and cached.plan_cache["source"] == "hit"
            if hit and cached.rows:
                return f"{kind}: synthetic divergence"
            return None

        monkeypatch.setattr(plancache, "_diff", diverge)
        profile = PROFILES["plancache"]
        raw = sweep(profile, 40000, 30, stop_after=1, shrink=False)
        small = sweep(profile, 40000, 30, stop_after=1, corpus_dir=tmp_path)
        (failure,) = small.failures
        assert (failure.kind, failure.config) in {("plancache", "sql"), ("plancache", "execute")}
        assert failure.seed == raw.failures[0].seed
        assert _rows(failure.case) < _rows(raw.failures[0].case)
        (saved,) = load_corpus(tmp_path)
        assert saved.to_fuzz_case().sql == failure.case.sql
        assert plancache.check_case(saved.to_fuzz_case(), small.tally) is not None

    def test_xmlpub_failure_shrinks_rows_then_strings(self, tmp_path):
        def check(case, tally):
            cells = [v for row in case.rows for v in row if isinstance(v, str)]
            if any("&" in cell for cell in cells):
                return Failure(case.seed, "xmlpub", "synthetic", case, "parse")
            return None

        profile = replace(PROFILES["xmlpub"], check=check)
        report = sweep(profile, 0, 40, stop_after=1, corpus_dir=tmp_path)
        (failure,) = report.failures
        (row,) = failure.case.rows
        assert [v for v in row if isinstance(v, str) and v] == ["&"]
        (saved,) = load_xmlpub_corpus(tmp_path)
        assert saved.rows == failure.case.rows and saved.spec == failure.case.spec

    def test_chaos_failure_writes_its_description(self, tmp_path):
        profile = replace(
            PROFILES["chaos"],
            check=lambda case, tally: Failure(case.seed, "chaos", "synthetic", case),
        )
        report = sweep(profile, 3, 1, corpus_dir=tmp_path)
        (path,) = report.corpus_paths
        payload = json.loads(path.read_text())
        assert payload["kind"] == "chaos-failure"
        assert payload["scenario"] == build_case(3).scenario
        assert payload["detail"] == "synthetic"

    def test_mixed_directory_loads_by_kind(self, tmp_path):
        for path in [*CORPUS_DIR.glob("*.json"), *CORPUS_DIR.glob("xmlpub/*.json")]:
            (tmp_path / path.name).write_text(path.read_text())
        described = Failure(3, "chaos", "synthetic", build_case(3)).describe()
        (tmp_path / "chaos-failures.json").write_text(json.dumps([described]))
        (tmp_path / "fuzz-chaos-failure-0123456789ab.json").write_text(
            json.dumps({"kind": "chaos-failure", **described})
        )
        assert len(load_corpus(tmp_path)) == 2
        assert len(load_xmlpub_corpus(tmp_path)) == 3


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_cli_every_profile(profile, capsys):
    assert main(["--profile", profile, "--seed", "0", "--n", "2"]) == 0
    summary = capsys.readouterr().out.splitlines()[-2]
    assert summary.startswith(f"{profile}: 2 cases, 0 failures")


def test_sweep_is_the_only_seed_loop():
    sources = [
        *Path(repro.fuzz.__file__).parent.glob("*.py"),
        Path(repro.serve.__main__.__file__),
    ]
    loops = [
        path.name
        for path in sources
        if re.search(r"for \w+ in range\((n|seed)\b", path.read_text())
    ]
    assert loops == ["driver.py"]
    gone = {
        "runner": ("run_fuzz", "FuzzReport", "FuzzFailure"),
        "plancache": ("run_plancache_fuzz", "PlanCacheReport", "PlanCacheFailure"),
        "xmlpub": (
            "run_xmlpub_fuzz",
            "XmlPubReport",
            "XmlPubFailure",
            "shrink_xmlpub_case",
        ),
        "chaos": ("run_chaos", "run_concurrent_chaos", "ChaosReport", "ChaosFailure"),
        "durability": ("run_durability_chaos",),
        "shrink": ("shrink_case",),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(getattr(repro.fuzz, module), name), name
