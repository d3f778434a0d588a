"""CLI driver: ``python -m repro.fuzz --seed 0 --n 500``.

Exit status 0 means every case agreed with the SQLite oracle and across
the whole plan space; 1 means at least one divergence (minimized
reproducers are written to ``--corpus-dir`` when given, which is how CI
surfaces them as artifacts).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.fuzz.planspace import (
    ENGINE_PROFILE,
    FULL_PROFILE,
    PLANCACHE_PROFILE,
    QUICK_PROFILE,
    XMLPUB_PROFILE,
)
from repro.fuzz.runner import run_fuzz


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing against SQLite and the plan space.",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--n", type=int, default=500, help="number of cases")
    parser.add_argument(
        "--profile",
        choices=[
            QUICK_PROFILE,
            FULL_PROFILE,
            ENGINE_PROFILE,
            PLANCACHE_PROFILE,
            XMLPUB_PROFILE,
        ],
        default=FULL_PROFILE,
        help="planner-configuration coverage (default full); 'engine' runs "
        "the row-iterator-vs-compiled differential across batch sizes, plan "
        "shapes and memory budgets; 'plancache' runs every case cold, hot, and "
        "re-parameterized through the plan cache against an uncached twin; "
        "'xmlpub' runs the streamed-vs-materialized XML publishing "
        "differential (random tagger specs plus end-to-end view cases)",
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        help="write minimized reproducers (JSON) into this directory",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw failing cases without minimizing them",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=5,
        help="stop after this many distinct failures (default 5)",
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="run chaos mode instead: seeded spill-write faults and "
        "adversarial budgets, asserting correct rows or a typed error",
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help="run durability chaos instead: seeded crash points against "
        "a WAL-backed store (kills, torn writes, fsync failures, "
        "checkpoint crashes), asserting exact prefix recovery",
    )
    args = parser.parse_args(argv)

    if args.durability:
        return _durability_main(args)
    if args.chaos:
        return _chaos_main(args)
    if args.profile == PLANCACHE_PROFILE:
        return _plancache_main(args)
    if args.profile == XMLPUB_PROFILE:
        return _xmlpub_main(args)
    start = time.perf_counter()
    report = run_fuzz(
        seed=args.seed,
        n=args.n,
        profile=args.profile,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        stop_after=args.stop_after,
        progress=lambda message: print(message, flush=True),
    )
    elapsed = time.perf_counter() - start
    print(report.summary())
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if report.ok else 1


def _plancache_main(args) -> int:
    from repro.fuzz.plancache import run_plancache_fuzz

    start = time.perf_counter()
    report = run_plancache_fuzz(
        seed=args.seed,
        n=args.n,
        stop_after=args.stop_after,
        progress=lambda message: print(message, flush=True),
    )
    elapsed = time.perf_counter() - start
    if report.failures and args.corpus_dir:
        import json
        from pathlib import Path

        directory = Path(args.corpus_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "plancache-failures.json"
        path.write_text(
            json.dumps(
                [failure.describe() for failure in report.failures], indent=2
            )
        )
        print(f"failing plan-cache cases written to {path}")
    print(report.summary())
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if report.ok else 1


def _xmlpub_main(args) -> int:
    from repro.fuzz.xmlpub import run_xmlpub_fuzz

    start = time.perf_counter()
    report = run_xmlpub_fuzz(
        seed=args.seed,
        n=args.n,
        stop_after=args.stop_after,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
        progress=lambda message: print(message, flush=True),
    )
    elapsed = time.perf_counter() - start
    print(report.summary())
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if report.ok else 1


def _chaos_main(args) -> int:
    from repro.fuzz.chaos import run_chaos

    start = time.perf_counter()
    report = run_chaos(
        seed=args.seed,
        n=args.n,
        stop_after=args.stop_after,
        progress=lambda message: print(message, flush=True),
    )
    elapsed = time.perf_counter() - start
    if report.failures and args.corpus_dir:
        import json
        from pathlib import Path

        directory = Path(args.corpus_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "chaos-failures.json"
        path.write_text(
            json.dumps(
                [failure.describe() for failure in report.failures], indent=2
            )
        )
        print(f"failing fault plans written to {path}")
    print(report.summary())
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if report.ok else 1


def _durability_main(args) -> int:
    from repro.fuzz.durability import run_durability_chaos

    start = time.perf_counter()
    report = run_durability_chaos(
        seed=args.seed,
        n=args.n,
        stop_after=args.stop_after,
        progress=lambda message: print(message, flush=True),
    )
    elapsed = time.perf_counter() - start
    if report.failures and args.corpus_dir:
        import json
        from pathlib import Path

        directory = Path(args.corpus_dir)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "durability-failures.json"
        path.write_text(
            json.dumps(
                [failure.describe() for failure in report.failures], indent=2
            )
        )
        print(f"failing crash plans written to {path}")
    print(report.summary())
    print(f"elapsed: {elapsed:.1f}s")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
