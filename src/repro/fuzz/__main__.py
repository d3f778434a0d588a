"""CLI driver: ``python -m repro.fuzz --profile full --seed 0 --n 500``.

Exit status 0 means every case of the profile held its invariant (for the
default ``full`` profile: agreement with the SQLite oracle and across the
whole plan space); 1 means at least one failure (reproducers are written
to ``--corpus-dir`` when given, which is how CI surfaces them as
artifacts).
"""

from __future__ import annotations

import argparse
import sys

from repro.fuzz import PROFILES
from repro.fuzz.driver import cli_sweep
from repro.fuzz.planspace import FULL_PROFILE


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Seeded differential fuzzing and fault-injection sweeps.",
    )
    parser.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--n", type=int, default=500, help="number of cases")
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default=FULL_PROFILE,
        help="what each seed generates and checks (default full): "
        "'quick'/'full' hold random queries to the SQLite oracle and every "
        "planner configuration; 'engine' to the compiled plan across batch "
        "sizes, plan shapes and memory budgets; 'plancache' drives the plan "
        "cache's model over them against an uncached twin; 'xmlpub' is the "
        "streamed-vs-materialized publishing differential; 'chaos' injects "
        "spill faults and adversarial budgets (correct rows or a typed "
        "error); 'durability' crashes a WAL-backed store at seeded points "
        "(exact prefix recovery); 'serve-stress' is python -m repro.serve "
        "--stress at its default shape",
    )
    parser.add_argument(
        "--corpus-dir",
        default=None,
        help="write one reproducer (JSON) per failure into this directory",
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
        help="stop after this many failing seeds (default 5)",
    )
    args = parser.parse_args(argv)
    return cli_sweep(
        PROFILES[args.profile],
        seed=args.seed,
        n=args.n,
        stop_after=args.stop_after,
        shrink=not args.no_shrink,
        corpus_dir=args.corpus_dir,
    )


if __name__ == "__main__":
    sys.exit(main())
