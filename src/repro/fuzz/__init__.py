"""Differential testing: random queries, a SQLite oracle, plan-space checks.

The subsystem has four moving parts:

* :mod:`repro.fuzz.generator` — seeded random schemas, data (skewed group
  sizes, NULL-heavy columns, empty groups, FK chains) and random dialect
  queries as ASTs;
* :mod:`repro.fuzz.oracle` — runs the same query on an in-memory SQLite
  mirror via :mod:`repro.sql.sqlite` and compares multisets; also the
  row-iterator reference (``reference_rows``) compiled plans are held to;
* :mod:`repro.fuzz.planspace` — runs the query under every planner
  configuration (each rule disabled, all rules off, spills, budgets) and
  demands identical results;
* :mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.corpus` — minimize failures
  and persist them as replayable JSON reproducers;
* :mod:`repro.fuzz.chaos` — seeded fault injection (failing spill
  writes) plus adversarial budgets, asserting correct rows or a typed
  error, never a wrong answer.

``python -m repro.fuzz --seed 0 --n 500`` drives all of it; see
:mod:`repro.fuzz.runner`.
"""

from repro.fuzz.chaos import (
    ChaosCase,
    ChaosFailure,
    ChaosReport,
    build_case,
    run_chaos,
    run_chaos_case,
)
from repro.fuzz.corpus import CorpusCase, load_corpus, save_case
from repro.fuzz.generator import FuzzCase, FuzzDatabase, generate_case
from repro.fuzz.oracle import (
    Mismatch,
    compare_multisets,
    normalize_row,
    reference_rows,
    run_oracle,
    sqlite_mirror,
)
from repro.fuzz.planspace import (
    FULL_PROFILE,
    QUICK_PROFILE,
    XMLPUB_PROFILE,
    plan_configurations,
    profile_configurations,
)
from repro.fuzz.runner import FuzzFailure, FuzzReport, run_case, run_fuzz
from repro.fuzz.shrink import shrink_case
from repro.fuzz.xmlpub import (
    XmlPubCase,
    XmlPubFailure,
    XmlPubReport,
    check_view_case,
    check_case as check_xmlpub_case,
    generate_xmlpub_case,
    load_xmlpub_corpus,
    run_xmlpub_fuzz,
    save_xmlpub_case,
    shrink_xmlpub_case,
)

__all__ = [
    "CorpusCase",
    "ChaosCase",
    "ChaosFailure",
    "ChaosReport",
    "FuzzCase",
    "FuzzDatabase",
    "FuzzFailure",
    "FuzzReport",
    "FULL_PROFILE",
    "Mismatch",
    "QUICK_PROFILE",
    "build_case",
    "compare_multisets",
    "generate_case",
    "load_corpus",
    "normalize_row",
    "plan_configurations",
    "profile_configurations",
    "reference_rows",
    "run_case",
    "run_chaos",
    "run_chaos_case",
    "run_fuzz",
    "run_oracle",
    "run_xmlpub_fuzz",
    "save_case",
    "save_xmlpub_case",
    "shrink_case",
    "shrink_xmlpub_case",
    "sqlite_mirror",
    "check_view_case",
    "check_xmlpub_case",
    "generate_xmlpub_case",
    "load_xmlpub_corpus",
    "XMLPUB_PROFILE",
    "XmlPubCase",
    "XmlPubFailure",
    "XmlPubReport",
]
