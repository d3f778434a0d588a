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

from collections import Counter
from pathlib import Path

import pytest

from repro.fuzz import PROFILES, sweep
from repro.fuzz.driver import Failure
from repro.fuzz.xmlpub import _has_single_type_run
from repro.fuzz.xmlpub import check_case as check_xmlpub_case
from repro.fuzz.xmlpub import (
    NASTY_VALUES,
    VIEW_CASE_EVERY,
    VIEW_VARIANTS,
    VIEW_XQUERIES,
    XmlPubCase,
    check_view_case,
    generate_xmlpub_case,
    load_xmlpub_corpus,
    save_xmlpub_case,
)
from repro.xmlpub import tagger

CORPUS_DIR = Path(__file__).resolve().parents[1] / "fuzz_corpus" / "xmlpub"


class TestSweep:
    def test_seeded_sweep_is_clean(self):
        report = sweep(PROFILES["xmlpub"], seed=0, n=40)
        assert report.ok, report.summary()
        assert report.cases == 40
        assert report.tally["view-cases"] == 8  # the seeds divisible by 5
        assert report.tally["view-variants"] == 8 * len(VIEW_VARIANTS)
        # the tagger's per-column fast paths ran, and the summary says so
        assert report.tally["single-type-cases"] > 0
        assert "single-type-cases=" in report.summary()

    def test_single_type_tally_counts_the_fast_paths_taken(self, monkeypatch):
        # A case counts toward single-type-cases exactly when the tagger
        # hands format_column two values or more of one fast-path type.
        columns = []
        format_column = tagger.format_column

        def recording(values):
            columns.append(values)
            return format_column(values)

        monkeypatch.setattr(tagger, "format_column", recording)
        counted = 0
        for seed in range(40):
            case = generate_xmlpub_case(seed)
            columns.clear()
            tagger.ConstantSpaceTagger(case.spec).tag_to_string(case.rows)
            fast = any(
                len(values) > 1
                and {type(v) for v in values} in ({str}, {float}, {int})
                for values in columns
            )
            assert fast == _has_single_type_run(case), seed
            counted += fast
        assert counted > 0

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


class TestCorpusValues:
    def test_every_nasty_value_round_trips_through_a_reproducer(self, tmp_path):
        # nan, ±inf, -0.0 and 10**20 included: a reproducer must replay the
        # value the tagger saw, not a neighbour of it.
        spec = generate_xmlpub_case(0).spec
        rows = [(0, 0) + (value,) for value in NASTY_VALUES]
        case = XmlPubCase(seed=0, spec=spec, rows=rows)
        save_xmlpub_case(Failure(0, "xmlpub", "detail", case), tmp_path)
        (loaded,) = load_xmlpub_corpus(tmp_path)
        assert len(loaded.rows) == len(rows)
        for before, after in zip(rows, loaded.rows):
            assert [type(v) for v in after] == [type(v) for v in before]
            assert list(map(repr, after)) == list(map(repr, before))


class TestDeterminism:
    def test_same_seed_same_case(self):
        for seed in (0, 1, 17, 4242):
            first = generate_xmlpub_case(seed)
            second = generate_xmlpub_case(seed)
            assert first.spec == second.spec
            assert first.rows == second.rows

    def test_view_case_differential(self):
        # One end-to-end case per supported view query family, directly:
        # every variant publishes the union reference's bytes.
        tally = Counter()
        for seed in range(0, VIEW_CASE_EVERY * len(VIEW_XQUERIES), VIEW_CASE_EVERY):
            failure = check_view_case(seed, tally)
            assert failure is None, str(failure)
        assert tally["view-variants"] == len(VIEW_XQUERIES) * len(VIEW_VARIANTS)
