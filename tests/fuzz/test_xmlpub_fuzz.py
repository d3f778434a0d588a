"""Tier-1 slice of the ``xmlpub`` differential fuzz profile.

Three layers, mirroring the SQL fuzzer's tier-1 tests:

* a seeded sweep of generated tagger-level cases (chunk invariance for
  every chunk size, parse + structure oracle) plus periodic end-to-end
  view cases through ``Database.publish``;
* replay of the minimized reproducers checked into
  ``tests/fuzz_corpus/xmlpub/`` — each one is a bug the fuzzer actually
  caught (control characters, carriage-return normalization, ``]]>``),
  kept green forever;
* determinism: the same seed must generate byte-identical cases, or
  every reproducer in the corpus loses its meaning.
"""

from pathlib import Path

import pytest

from repro.fuzz import PROFILES, sweep
from repro.fuzz.xmlpub import check_case as check_xmlpub_case
from repro.fuzz.xmlpub import (
    check_view_case,
    generate_xmlpub_case,
    load_xmlpub_corpus,
)

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus" / "xmlpub"


class TestSweep:
    def test_seeded_sweep_is_clean(self):
        report = sweep(PROFILES["xmlpub"], seed=0, n=40)
        assert report.ok, report.summary()
        assert report.cases == 40
        assert report.tally["view-cases"] == 8  # the seeds divisible by 5

    def test_single_case_oracle_is_clean(self):
        case = generate_xmlpub_case(7)
        assert check_xmlpub_case(case) is None


class TestCorpusReplay:
    def test_corpus_exists_and_is_loaded(self):
        cases = load_xmlpub_corpus(CORPUS_DIR)
        assert len(cases) >= 3  # the bugs the fuzzer caught and minimized

    @pytest.mark.parametrize(
        "path",
        sorted(CORPUS_DIR.glob("fuzz-xmlpub-*.json")),
        ids=lambda path: path.stem,
    )
    def test_reproducer_stays_fixed(self, path, tmp_path):
        # Load just this file through the public loader.
        link = tmp_path / path.name
        link.write_text(path.read_text())
        (case,) = load_xmlpub_corpus(tmp_path)
        failure = check_xmlpub_case(case)
        assert failure is None, str(failure)


class TestDeterminism:
    def test_same_seed_same_case(self):
        for seed in (0, 1, 17, 4242):
            first = generate_xmlpub_case(seed)
            second = generate_xmlpub_case(seed)
            assert first.spec == second.spec
            assert first.rows == second.rows

    def test_view_case_differential(self):
        # One end-to-end case per supported view query family, directly.
        for seed in range(5):
            failure = check_view_case(seed)
            assert failure is None, str(failure)
