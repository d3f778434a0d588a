"""Properties of the plan-cache normalizer.

Three families, each a soundness condition the cache's correctness rests
on:

* **Printer round-trip** — the cache key is a digest of the printed
  parameterized AST, and a cold miss re-parses nothing; the printed text
  must parse back to the identical AST or two different shapes could
  collide (or one shape split).
* **Extraction soundness** — parameterize + re-bind is the identity on
  query *semantics*: binding the extracted literals back must reproduce
  the original rows exactly, over the fuzz generator's query space.
* **Collision freedom** — the 10 paper formulations are distinct shapes
  and must produce 10 distinct keys; how a plan is run must not
  partition the key space (a compiled run reuses the entry the
  row-iterator reference built).
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.fuzz.generator import generate_case
from repro.fuzz.oracle import reference_rows
from repro.observe.__main__ import formulations
from repro.optimizer.plancache import text_digest
from repro.sql.normalize import (
    bind_ast_parameters,
    count_parameters,
    parameterize,
    seed_parameters,
    type_signature,
)
from repro.sql.parser import parse
from repro.sql.printer import print_statement

#: Fuzz seeds driving the corpus-based properties. Deliberately disjoint
#: from the CI fuzz sweeps (0-1500, 20000-21000, 40000-40600) so tier-1
#: adds coverage instead of re-checking the same cases.
CORPUS_SEEDS = list(range(60000, 60060))


def sorted_rows(result):
    return sorted(result.rows, key=repr)


class TestPrinterRoundTrip:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    def test_parameterized_ast_survives_print_parse(self, seed):
        # Parse the printed text first: the cache only ever parameterizes
        # parser-produced statements (queries arrive as text), and the
        # generator's hand-built ASTs allow shapes the parser normalizes
        # (e.g. AstExists(negated=True) vs not-unary over exists).
        case = generate_case(seed)
        param_query, values = parameterize(parse(case.sql))
        text = print_statement(param_query)
        reparsed = parse(text)
        # AstParameter.seed is excluded from equality, so this compares
        # the parameterized *shape* — exactly what the cache key hashes.
        assert reparsed == param_query
        # And the round-trip is idempotent: printing again changes nothing.
        assert print_statement(reparsed) == text

    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:20])
    def test_marker_count_matches_extraction(self, seed):
        case = generate_case(seed)
        param_query, values = parameterize(parse(case.sql))
        assert count_parameters(param_query) == len(values)
        assert len(type_signature(values)) == len(values)


class TestExtractionSoundness:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:30])
    def test_rebinding_reproduces_original_rows(self, seed):
        case = generate_case(seed)
        db = case.db.build()
        db.plan_cache = None  # isolate the normalizer from the cache
        param_query, values = parameterize(parse(case.sql))
        rebound = bind_ast_parameters(param_query, values)
        original = db.sql(case.sql)
        roundtripped = db.sql(print_statement(rebound))
        assert sorted_rows(roundtripped) == sorted_rows(original)

    @pytest.mark.parametrize("seed", CORPUS_SEEDS[:10])
    def test_seeding_preserves_shape(self, seed):
        case = generate_case(seed)
        param_query, values = parameterize(parse(case.sql))
        reseeded = seed_parameters(param_query, values)
        # Seeds don't participate in equality: reseeding is shape-neutral,
        # which is what lets a marker query's bound values seed its plan.
        assert reseeded == param_query
        assert print_statement(reseeded) == print_statement(param_query)


class TestCollisionFreedom:
    def test_paper_formulations_have_distinct_keys(self):
        digests = {}
        for label, sql in formulations(None):
            param_query, values = parameterize(parse(sql))
            digest = text_digest(print_statement(param_query))
            assert digest not in digests, (
                f"cache-key collision: {label} vs {digests[digest]}"
            )
            digests[digest] = label
        assert len(digests) == 10

    def test_engines_share_entries(self, tpch_catalog):
        """The row-iterator reference and the compiled run over all 10
        formulations: one entry per shape — how a lowered plan is run is
        not part of the key — and identical rows out of the shared
        template."""
        db = Database(tpch_catalog)
        for label, sql in formulations(None):
            volcano = list(reference_rows(db, sql))  # lowers via the cache
            vector = db.sql(sql)
            assert vector.plan_cache["source"] == "hit", label
            assert sorted(vector.rows, key=repr) == sorted(volcano, key=repr)

    def test_fuzz_corpus_distinct_queries_distinct_keys(self):
        """Different shapes never share a digest across the corpus (same
        shapes may: that is the cache working as intended)."""
        by_digest: dict[str, object] = {}
        for case in map(generate_case, CORPUS_SEEDS):
            param_query, _ = parameterize(parse(case.sql))
            digest = text_digest(print_statement(param_query))
            previous = by_digest.get(digest)
            if previous is not None:
                assert previous == param_query, (
                    f"distinct shapes collide on digest {digest[:12]}"
                )
            by_digest[digest] = param_query
