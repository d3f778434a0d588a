"""CLI driver: ``python -m repro.serve --stress``.

``--stress`` sweeps the seeded multi-client profile of the service
contract (:func:`repro.fuzz.service.serve_stress_profile`): per seed, a
fresh service over a ledger table is hammered by ``--threads`` client
threads drawing snapshot reads, publishes and atomic write batches
from the model's actions, under fault plans, load shedding, short
deadlines and mid-run shutdowns, and the run must reconcile with the
model (every submission ended once, as ``stats()`` counts it; no torn
read, wrong document, hang or leaked spill file). The summary line
tallies the scenario mix and the model events the clients saw. Exit
status 0 means every seed upheld the contract; 1 means at least one
failure (one JSON file each in ``--artifacts-dir`` when given, which is
how CI surfaces them).

``faulthandler`` is armed with a watchdog timeout so a genuine deadlock
dumps every thread's stack instead of hanging the CI job silently.

Without ``--stress`` the module runs a tiny demo: it builds a scratch
service, issues a few queries through a session, and prints the service
stats and health snapshots — the quickest way to see the API shape.
"""

from __future__ import annotations

import argparse
import faulthandler
import sys


def _stress_main(args: argparse.Namespace) -> int:
    from repro.fuzz.service import serve_stress_profile
    from repro.fuzz.driver import cli_sweep

    # A hung run dumps all thread stacks and aborts rather than eating
    # the whole CI job timeout in silence.
    faulthandler.enable()
    if args.watchdog > 0:
        faulthandler.dump_traceback_later(args.watchdog, exit=True)
    try:
        return cli_sweep(
            serve_stress_profile(args.threads, args.ops),
            seed=args.seed,
            n=args.seeds,
            stop_after=args.stop_after,
            corpus_dir=args.artifacts_dir,
        )
    finally:
        faulthandler.cancel_dump_traceback_later()


def _demo_main() -> int:
    from repro.api import Database
    from repro.serve import Service
    from repro.storage.types import DataType

    db = Database()
    db.create_table(
        "part",
        [("p_partkey", DataType.INTEGER), ("p_size", DataType.INTEGER)],
        [(i, i % 5) for i in range(50)],
    )
    with Service(db) as service:
        with service.session(client="demo") as session:
            print("count:", session.sql("select count(*) from part").rows)
            session.insert("part", [(50, 0), (51, 1)])
            print(
                "after insert:",
                session.sql("select count(*) from part").rows,
            )
        print("stats:", service.stats())
        print("health:", service.health())
    print("shut down cleanly")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Concurrent query service: demo and stress harness.",
    )
    parser.add_argument(
        "--stress",
        action="store_true",
        help="run the seeded multi-client concurrent chaos workload",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="first seed (default 0)"
    )
    parser.add_argument(
        "--seeds", type=int, default=20, help="number of seeds (default 20)"
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=8,
        help="client threads per seed (default 8)",
    )
    parser.add_argument(
        "--ops",
        type=int,
        default=4,
        help="operations per client thread (default 4)",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=5,
        help="stop after this many failing seeds (default 5)",
    )
    parser.add_argument(
        "--watchdog",
        type=float,
        default=600.0,
        help="faulthandler deadlock watchdog seconds, 0 disables "
        "(default 600)",
    )
    parser.add_argument(
        "--artifacts-dir",
        default=None,
        help="write failing cases (JSON) into this directory",
    )
    args = parser.parse_args(argv)
    if args.stress:
        return _stress_main(args)
    return _demo_main()


if __name__ == "__main__":
    sys.exit(main())
