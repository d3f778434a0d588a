"""Self-test of the spine benchmark: ``python3 benchmarks/spine/selftest.py``.

Not named ``test_*``/``bench_*`` so neither pytest nor the CI benchmark
smoke glob picks it up; it takes about two minutes. Checks that

* a ``--quick --traced`` run of all six workloads finishes in under
  ``QUICK_LIMIT_S`` seconds with ``error_share`` 0, and reports every
  gated metric and only declared, applicable names;
* the line a single run prints for the driver carries exactly the
  metric names ``BENCHMARK.json`` declares, and ``BENCHMARK.json``
  agrees with ``metrics.py`` on workloads, units, directions and bounds;
* two quick runs with one seed agree exactly on every count that must
  repeat, and another seed changes ``sql_hot``'s parameter draw.

Run it from a checkout that has ``src/`` (it measures the program).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS, gated_metrics

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUICK_LIMIT_S = 60.0
SEED = 7


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def quick_run(out: Path, seed: int) -> tuple[dict, float]:
    started = perf_counter()
    done = subprocess.run(
        [*RUN, "--quick", "--traced", "--repeats", "1", "--seed", str(seed), "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
    )
    elapsed = perf_counter() - started
    expect(done.returncode == 0, f"quick run exited with code {done.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))["workloads"], elapsed


def driver_line(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [*RUN, "--quick", "--workload", workload, "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    expect(done.returncode == 0, f"{workload} --trace {trace} exited {done.returncode}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, "keys of the result line")
    expect(line["correct"] and line["failed"] == 0, f"{workload}: requests failed")
    return line["metrics"]


def counts(result: dict, workload: str) -> dict[str, float]:
    layer = result[workload]["per_layer"]
    return {name: layer[name]["values"][0] for name in EXACT_COUNTS if name in layer}


def check_declaration() -> dict:
    declared = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        {w["name"]: w["why"] for w in declared["workloads"]} == WORKLOADS,
        "BENCHMARK.json workloads differ from metrics.WORKLOADS",
    )
    expect(
        [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]]
        == [(m.name, m.unit, m.better, m.bound) for m in gated_metrics()],
        "BENCHMARK.json end_to_end differs from the gated metrics in metrics.py",
    )
    expect(
        [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]]
        == [(m.name, m.unit, m.better) for m in PER_LAYER],
        "BENCHMARK.json per_layer differs from metrics.PER_LAYER",
    )
    names = [*WORKLOADS, *(m.name for m in END_TO_END), *(m.name for m in PER_LAYER)]
    expect(all(NAME.fullmatch(name) for name in names), "a name is outside [A-Za-z0-9_.-]+")
    expect(len(set(names)) == len(names), "a name is used twice")
    return declared


def main() -> int:
    declared = check_declaration()
    with tempfile.TemporaryDirectory() as scratch:
        first, elapsed = quick_run(Path(scratch) / "a.json", SEED)
        print(f"quick run of {len(first)} workloads, traced: {elapsed:.1f} s")
        expect(elapsed < QUICK_LIMIT_S, f"quick run took {elapsed:.1f} s")
        expect(list(first) == list(WORKLOADS), "workloads emitted differ from those declared")
        for workload, entry in first.items():
            expect(entry["correct"] and entry["failed"] == 0, f"{workload}: error_share > 0")
            for section, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
                allowed = {m.name for m in table if m.applies_to(workload)}
                extra = set(entry[section]) - allowed
                expect(not extra, f"{workload} emitted undeclared {sorted(extra)}")
            missing = {m.name for m in gated_metrics()} - set(entry["end_to_end"])
            expect(not missing, f"{workload} lacks {sorted(missing)}")

        second, _ = quick_run(Path(scratch) / "b.json", SEED)
        for workload in WORKLOADS:
            expect(
                counts(first, workload) == counts(second, workload),
                f"{workload}: counts differ between two runs of seed {SEED}: "
                f"{counts(first, workload)} != {counts(second, workload)}",
            )
        print("exact counts repeat for one seed")

    plain = driver_line("sql_hot", SEED + 1, 0)
    expect(
        list(plain) == [m["name"] for m in declared["end_to_end"]],
        "--trace 0 line does not carry exactly the declared end_to_end metrics",
    )
    traced = driver_line("sql_hot", SEED + 1, 1)
    expect(
        list(traced) == [m["name"] for m in declared["per_layer"]],
        "--trace 1 line does not carry exactly the declared per_layer metrics",
    )
    print("result lines carry exactly the declared metrics")

    # At --quick scale every part is both high-end and low-end, so the
    # draw cannot show in a count; look at the generated requests.
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    from workloads import SqlHot

    draws = [SqlHot(seed, True, HERE).bands for seed in (SEED, SEED, SEED + 1)]
    expect(draws[0] == draws[1], "one seed drew two different sets of Q3 constants")
    expect(draws[0] != draws[2], "another seed did not change sql_hot's parameter draw")
    print("another seed changes sql_hot's parameter draw")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
