"""Script-mode CLI shared by every ``benchmarks/bench_*.py``.

Each benchmark file is primarily a pytest-benchmark suite. Run directly
(``python benchmarks/bench_X.py``) it instead exposes a **smoke mode**::

    python benchmarks/bench_fig8_speedup.py --smoke --out fig8.json

``--smoke`` runs the same measured code paths at a tiny TPC-H scale with a
single repetition — fast enough for per-PR CI — and ``--out`` writes the
harness JSON measurement document (:func:`repro.bench.harness.
write_measurements_json`), which the CI benchmark-smoke job uploads as an
artifact so perf regressions are visible per PR. Without ``--smoke`` the
script runs at the regular benchmark scale (slower, better numbers).

The contract enforced by ``tests/test_bench_smoke.py``: every benchmark
script accepts ``--smoke``/``--out``, exits 0 within the smoke budget, and
emits at least one measurement record.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Sequence

from repro.bench.harness import Measurement, write_measurements_json

SMOKE_SCALE = 0.02
FULL_SCALE = 0.1
SMOKE_REPETITIONS = 1
FULL_REPETITIONS = 3

#: name -> Measurement pairs, as produced by each script's case builder.
NamedMeasurements = Sequence[tuple[str, Measurement]]


def bench_main(
    benchmark_name: str,
    build_cases: Callable[[float, int], NamedMeasurements],
    argv: list[str] | None = None,
) -> NamedMeasurements:
    """Parse the shared CLI, run ``build_cases(scale, repetitions)``,
    print a table, and optionally write the JSON document."""
    parser = argparse.ArgumentParser(
        prog=f"python benchmarks/bench_{benchmark_name}.py",
        description=f"Script mode for the {benchmark_name} benchmark suite "
        "(pytest runs the full pytest-benchmark version).",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"smoke mode: scale {SMOKE_SCALE}, {SMOKE_REPETITIONS} repetition "
        "(the per-PR CI configuration)",
    )
    parser.add_argument(
        "--scale", type=float, default=None, help="override the TPC-H scale"
    )
    parser.add_argument(
        "--repetitions", type=int, default=None, help="best-of-N repetitions"
    )
    parser.add_argument(
        "--out", default=None, help="write the measurement JSON document here"
    )
    args = parser.parse_args(argv)
    scale = args.scale if args.scale is not None else (
        SMOKE_SCALE if args.smoke else FULL_SCALE
    )
    repetitions = args.repetitions if args.repetitions is not None else (
        SMOKE_REPETITIONS if args.smoke else FULL_REPETITIONS
    )

    started = time.perf_counter()
    named = list(build_cases(scale, repetitions))
    total = time.perf_counter() - started

    width = max((len(name) for name, _ in named), default=4)
    mode = "smoke" if args.smoke else "full"
    print(f"{benchmark_name} [{mode}] scale={scale} repetitions={repetitions}")
    print(f"{'case':<{width}} {'elapsed':>10} {'work':>10} {'rows':>7}")
    for name, m in named:
        print(
            f"{name:<{width}} {m.elapsed * 1e3:>8.2f}ms {m.work:>10} "
            f"{m.rows:>7}"
        )
    print(f"total wall time: {total:.2f}s")

    if args.out:
        write_measurements_json(
            args.out,
            named,
            benchmark=benchmark_name,
            scale=scale,
            repetitions=repetitions,
            smoke=args.smoke,
            total_seconds=total,
        )
        print(f"wrote {args.out}")
    return named


def measure_callable(
    fn: Callable[[], int], repetitions: int, **fields: object
) -> Measurement:
    """Best-of-N timing for a whole-pipeline callable returning a size.

    For pipelines that do more than execute one physical plan (e.g. the
    XML publishing path: execute + tag); ``work`` is 0 unless passed in
    via ``fields``.
    """
    best = float("inf")
    size = 0
    for _ in range(repetitions):
        start = time.perf_counter()
        size = fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    defaults: dict = {"work": 0, "rows": size}
    defaults.update(fields)
    return Measurement(elapsed=best, **defaults)
