"""Compare two spine results: ``compare.py A.json B.json``.

``A`` is the parent, ``B`` the change; both are ``run.py --out`` files
made with the same benchmark code, seed and sizes. One row per workload x
end-to-end metric: both medians with their quartiles, the bound, and a
verdict:

* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the metric's bound and by more than either side's spread;
* ``unresolved`` — neither, but a side's spread (IQR / median) is wider
  than the bound, so "unchanged" cannot be claimed;
* ``unchanged`` — otherwise.

Quartiles of three repeats are extrapolated, so ask ``run.py`` for
``--repeats 10`` before reading a verdict as a claim. Counts that must
repeat exactly are listed when both files carry them. Exit 1 on any
``regressed`` or on a higher ``error_share``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from metrics import END_TO_END, EXACT_COUNTS, Metric, quartiles, spread


def verdict(metric: Metric, parent: list[float], change: list[float]) -> str:
    if metric.name == "error_share":  # one bad repeat is enough: worst against worst
        a, b = max(parent), max(change)
        return "regressed" if b > a else "improved" if b < a else "unchanged"
    a, b = quartiles(parent)[1], quartiles(change)[1]
    worse = (b - a) / a if metric.better == "lower" else (a - b) / a
    wide = max(spread(parent), spread(change))
    if worse > metric.bound and worse > wide:
        return "regressed"
    if -worse > metric.bound and -worse > wide:
        return "improved"
    return "unresolved" if wide > metric.bound else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    parent, change = (
        json.loads(Path(path).read_text(encoding="utf-8"))["workloads"] for path in argv
    )
    failed = False
    print(f"{'workload':<14} {'metric':<34} {'unit':<6} {'A median [q1..q3]':<34} "
          f"{'B median [q1..q3]':<34} {'bound':>6}  verdict")
    for name in parent:
        if name not in change:
            continue
        for metric in END_TO_END:
            a = parent[name]["end_to_end"].get(metric.name)
            b = change[name]["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            outcome = verdict(metric, a["values"], b["values"])
            failed = failed or outcome == "regressed"
            cells = [
                "{1:.4f} [{0:.4f}..{2:.4f}]".format(*quartiles(side["values"]))
                for side in (a, b)
            ]
            print(f"{name:<14} {metric.name:<34} {metric.unit:<6} {cells[0]:<34} "
                  f"{cells[1]:<34} {metric.bound:>6.2f}  {outcome}")
        for count in EXACT_COUNTS:
            a = parent[name]["per_layer"].get(count)
            b = change[name]["per_layer"].get(count)
            if a is None or b is None:
                continue
            same = "identical" if a["values"] == b["values"] else "differs"
            print(f"{name:<14} {count:<34} count  {a['values'][0]:<34.0f} "
                  f"{b['values'][0]:<34.0f} {'exact':>6}  {same}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
