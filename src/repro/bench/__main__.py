"""Run the whole evaluation: Figure 8, Table 1 and the E8 calibration.

Usage::

    python -m repro.bench [scale]

This prints the summary tables EXPERIMENTS.md quotes. Expect a few
minutes at the default scale.
"""

from __future__ import annotations

import sys

from repro.bench.client_sim import run_q4_calibration
from repro.bench.fig8 import format_rows, run_figure8
from repro.bench.table1 import format_summaries, run_table1


def main(argv: list[str] | None = None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    scale = float(argv[0]) if argv else 0.1

    print(f"Reproducing the paper's evaluation at TPC-H scale {scale}\n")

    print(format_rows(run_figure8(scale)))
    print()
    print(format_summaries(run_table1(scale)))
    print()
    result = run_q4_calibration(scale)
    print("E8 - client-side simulation of GApply (Q4), Section 5.1")
    print(
        f"  simulated {result.simulated_total * 1e3:.1f} ms vs native "
        f"{result.native.elapsed * 1e3:.1f} ms -> overhead "
        f"{result.overhead:.2f}x (paper: ~1.2x; both conservative)"
    )


if __name__ == "__main__":
    main()
