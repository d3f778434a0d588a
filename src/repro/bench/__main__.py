"""The experiment harness: every experiment of the evaluation, one CLI.

Usage::

    python -m repro.bench [experiment ... | all] [--smoke] [--scale S]
                          [--repetitions N] [--out DIR]

Each registered experiment is a ``cases(scale, repetitions)`` function
returning ``(name, Measurement)`` pairs; Figure 8, Table 1 and the E8
calibration also print the paper-format tables EXPERIMENTS.md quotes.
``--smoke`` runs the same measured code paths at a tiny TPC-H scale with
a single repetition — fast enough for per-PR CI — and ``--out`` writes one
``<experiment>.json`` measurement document per experiment
(:func:`repro.bench.harness.write_measurements_json`) into a directory,
which the CI benchmark-smoke job uploads as an artifact so perf
regressions are visible per PR. Without ``--smoke`` the experiments run at
the regular scale (slower, better numbers).

The contract enforced by ``tests/test_bench_smoke.py``: every experiment
exits 0 under ``--smoke`` and emits exactly its pinned set of case names.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.bench import (
    ablations,
    client_sim,
    durability,
    fig8,
    serve_throughput,
    table1,
    xml_publishing,
)
from repro.bench.harness import Measurement, write_measurements_json

SMOKE_SCALE = 0.02
FULL_SCALE = 0.1
SMOKE_REPETITIONS = 1
FULL_REPETITIONS = 3

#: experiment name -> ``cases(scale, repetitions)``.
EXPERIMENTS: dict[str, Callable[[float, int], list[tuple[str, Measurement]]]] = {
    "fig8_speedup": fig8.cases,
    "table1_rules": table1.cases,
    "client_simulation": client_sim.cases,
    "partitioning": ablations.partitioning_cases,
    "index_ablation": ablations.index_ablation_cases,
    "spill": ablations.spill_cases,
    "xml_publishing": xml_publishing.cases,
    "durability": durability.cases,
    "serve_throughput": serve_throughput.cases,
}


def _experiment(name: str) -> str:
    if name != "all" and name not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {name!r} (registered: {', '.join(EXPERIMENTS)})"
        )
    return name


def _scale(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"scale must be positive, got {text}")
    return value


def _repetitions(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"repetitions must be >= 1, got {text}")
    return value


def main(argv: list[str] | None = None) -> int:
    """Parse the CLI, run each selected experiment, print its case table,
    and optionally write its JSON document."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run experiments of the paper's evaluation: "
        + ", ".join(EXPERIMENTS)
        + ".",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        type=_experiment,
        metavar="experiment",
        help="registered experiment names, or 'all' (the default)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"smoke mode: scale {SMOKE_SCALE}, {SMOKE_REPETITIONS} repetition "
        "(the per-PR CI configuration)",
    )
    parser.add_argument(
        "--scale", type=_scale, default=None, help="override the TPC-H scale"
    )
    parser.add_argument(
        "--repetitions", type=_repetitions, default=None, help="best-of-N repetitions"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write one <experiment>.json measurement document per experiment here",
    )
    args = parser.parse_args(argv)
    names = args.experiments
    if not names or "all" in names:
        names = list(EXPERIMENTS)
    scale = args.scale or (SMOKE_SCALE if args.smoke else FULL_SCALE)
    repetitions = args.repetitions or (
        SMOKE_REPETITIONS if args.smoke else FULL_REPETITIONS
    )
    mode = "smoke" if args.smoke else "full"

    for name in names:
        started = time.perf_counter()
        named = EXPERIMENTS[name](scale, repetitions)
        total = time.perf_counter() - started

        width = max((len(case) for case, _ in named), default=4)
        print(f"{name} [{mode}] scale={scale} repetitions={repetitions}")
        print(f"{'case':<{width}} {'elapsed':>10} {'work':>10} {'rows':>7}")
        for case, m in named:
            print(
                f"{case:<{width}} {m.elapsed * 1e3:>8.2f}ms {m.work:>10} "
                f"{m.rows:>7}"
            )
        print(f"total wall time: {total:.2f}s")

        if args.out:
            directory = Path(args.out)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{name}.json"
            write_measurements_json(
                path,
                named,
                benchmark=name,
                scale=scale,
                repetitions=repetitions,
                smoke=args.smoke,
                total_seconds=total,
            )
            print(f"wrote {path}")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
