"""The timing spine: one end-to-end + per-layer benchmark.

Two ways in, one code path::

    python3 benchmarks/spine/run.py [--seed N] [--workload W] [--repeats R]
                                    [--traced] [--quick] [--calibrate]
                                    [--seconds S] [--out FILE]

runs every workload (or one) ``R`` times, each repeat in a fresh
subprocess, one at a time, interleaved across workloads, and prints the
median of every metric by name with its unit. Each of those subprocesses
is the second way in, which is also what the driver of ``BENCHMARK.json``
calls::

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1

one workload, one run, in this process; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Without ``--seconds`` the request list has its stated fixed length (at
least 100 requests, so ten samples lie beyond p90) and every count
repeats exactly; with it, whole rounds are issued until the requests have
been busy for that long. A traced run always replays the fixed, shorter
list: once plain, once with spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import NoReturn

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
#: Scratch space inside the checkout: durable stores and ``trace.json``.
WORK = HERE / "_work"

DEFAULT_SEED = 20030609
DEFAULT_REPEATS = 3
CALIBRATE_REPEATS = 5
#: ``setup_s`` is the median over repeated set-ups: at least ``SETUPS``,
#: and more (up to ``MAX_SETUPS``) while they have taken under
#: ``SETUP_BUDGET_S`` in all, so a millisecond set-up is not one sample.
SETUPS = 3
MAX_SETUPS = 25
SETUP_BUDGET_S = 0.5


def fail(reason: str) -> NoReturn:
    print(f"spine: {reason}", file=sys.stderr)
    sys.exit(1)


def import_program() -> None:
    """Put ``src`` on the path; the benchmark runs the program from
    source and must refuse to run where there is none."""
    if not (REPO / "src" / "repro").is_dir():
        fail(f"no program to measure: {REPO / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(REPO / "src"))


# ----------------------------------------------------------------------
# One run of one workload, in this process
# ----------------------------------------------------------------------


class Pass:
    """One pass over a request list: latencies and failures."""

    def __init__(self) -> None:
        #: One per request that returned; a request that raised has none.
        self.latencies: list[float] = []
        self.labels: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def fail(self, request, reason: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = f"{request.kind} {request.label}: {reason}"


def run_pass(workload, rounds: int | None, seconds: float | None, tracer, host) -> Pass:
    """Issue rounds of requests, closed loop, one client.

    ``rounds`` fixes the length of the list; otherwise whole rounds are
    issued until the requests have been busy for ``seconds``. Only the
    one public-API call is timed: preparation, checks and the host-speed
    samples taken between requests are not.
    """
    result = Pass()
    latencies = result.latencies
    busy = 0.0
    index = 0
    while True:
        if rounds is not None:
            if index >= rounds:
                break
        elif busy >= seconds:
            break
        workload.begin_round(index)
        for request in workload.round(index):
            workload.before(request)
            host.sample_if_due()
            result.attempted += 1
            try:
                if tracer is None:
                    started = perf_counter()
                    output = workload.execute(request)
                    latency = perf_counter() - started
                else:
                    tracer.request_id = result.attempted
                    with tracer.span("api." + request.kind) as call:
                        output = workload.execute(request)
                    latency = call.duration
            except Exception as error:  # counted as a failed request, not hidden
                result.fail(request, f"raised {error!r}")
                continue
            latencies.append(latency)
            result.labels.append(request.label)
            busy += latency
            if not workload.check(request, output):
                result.fail(request, "output check failed")
            if tracer is not None:
                workload.staged(request, output, tracer)
        workload.end_round(index)
        index += 1
    return result


def run_single(args: argparse.Namespace) -> int:
    import_program()
    from host import HostSpeed, at_reference_speed
    from layers import layer_metrics
    from metrics import END_TO_END, PER_LAYER, class_median, gated_metrics, percentile
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    traced = args.trace == 1
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    workload = WORKLOADS[args.workload](args.seed, args.quick, workdir)
    if traced:
        workload.use_traced_sizes()
    host = HostSpeed()
    try:
        try:
            setups: list[float] = []
            while len(setups) < SETUPS or (
                sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
            ):
                host.sample()
                started = perf_counter()
                workload.setup()
                setups.append(perf_counter() - started)
            host.sample()
            workload.prepare_checks()
        except Exception as error:  # reported in one line, then exit 1
            fail(f"{args.workload} raised during set-up: {error!r}")

        seconds = None if traced else args.seconds
        rounds = workload.rounds if seconds is None else None
        plain = run_pass(workload, rounds, seconds, None, host)
        passes = [plain]
        layer: dict[str, tuple[float, int]] = {}
        if traced:
            tracer = Tracer()
            workload.start_counting()
            replayed = run_pass(workload, rounds, None, tracer, host)
            passes.append(replayed)
            counts = workload.layer_counts()
            workload.probes(tracer)
            layer = layer_metrics(tracer, counts, plain.busy, replayed.busy)
            layer["host.slowdown"] = (host.slowdown, len(host.samples))
            tracer.write(str(WORK / f"trace-{args.workload}.json"))
        durable_ok = workload.final_check()
        workload.teardown()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain.latencies:
        fail(f"every {args.workload} request raised; first: {plain.first_error}")
    ordered = sorted(plain.latencies)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    samples = len(ordered)
    end_to_end = {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (samples / plain.busy, samples),
        "op_p50_ms": (class_median(plain.latencies, plain.labels) * 1e3, samples),
        "op_p90_ms": (percentile(ordered, 0.9) * 1e3, samples),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            1,
        ),
        "error_share": (failed / attempted, attempted),
        **workload.extra_metrics(plain.busy),
    }

    slowdown = host.slowdown

    def table(declared, values):
        """Declared, applicable metrics, every time at reference speed."""
        return {
            m.name: {
                "value": at_reference_speed(values[m.name][0], m.unit, slowdown),
                "unit": m.unit,
                "samples": values[m.name][1],
            }
            for m in declared
            if m.name in values and m.applies_to(args.workload)
        }

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "quick": args.quick,
        "seconds": seconds,
        "trace": args.trace,
        "correct": failed == 0 and durable_ok,
        "attempted": attempted,
        "failed": failed,
        "first_error": next((p.first_error for p in passes if p.first_error), None),
        "slowdown": slowdown,
        "end_to_end": table(END_TO_END, end_to_end),
        "per_layer": table(PER_LAYER, layer),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if detail["first_error"]:
        print(f"spine: first failure: {detail['first_error']}", file=sys.stderr)

    # The driver's line: with --trace 0 every gated end-to-end metric,
    # with --trace 1 every per-layer metric (0 where a layer had no calls).
    declared = PER_LAYER if traced else gated_metrics()
    cells = detail["per_layer" if traced else "end_to_end"]
    line = {
        "correct": detail["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m.name: {"value": cells[m.name]["value"], "unit": m.unit} for m in declared
        },
    }
    print(json.dumps(line))
    return 0


# ----------------------------------------------------------------------
# Every workload, repeated, each repeat in a fresh subprocess
# ----------------------------------------------------------------------


def run_child(workload: str, args: argparse.Namespace, trace: int, out: Path) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(trace), "--out", str(out),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        fail(f"{workload} (trace {trace}) exited with code {done.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_all(args: argparse.Namespace) -> int:
    from metrics import END_TO_END, PER_LAYER, WORKLOADS, quartiles, spread

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            fail(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
    repeats = CALIBRATE_REPEATS if args.calibrate else args.repeats
    WORK.mkdir(exist_ok=True)
    report = {
        name: {
            "end_to_end": {}, "per_layer": {}, "slowdown": [],
            "attempted": 0, "failed": 0, "correct": True,
        }
        for name in names
    }
    scratch = Path(tempfile.mkdtemp(prefix="runs-", dir=WORK))
    try:
        for trace in (0, 1) if args.traced else (0,):
            for repeat in range(repeats if trace == 0 else 1):
                for name in names:
                    print(f"# {name}: trace {trace}, repeat {repeat + 1}", file=sys.stderr)
                    detail = run_child(name, args, trace, scratch / "run.json")
                    entry = report[name]
                    entry["attempted"] += detail["attempted"]
                    entry["failed"] += detail["failed"]
                    entry["correct"] = entry["correct"] and detail["correct"]
                    entry["slowdown"].append(detail["slowdown"])
                    section = "per_layer" if trace else "end_to_end"
                    for metric, cell in detail[section].items():
                        if cell["samples"] == 0:
                            continue  # omitted, not zeroed
                        merged = entry[section].setdefault(
                            metric, {"unit": cell["unit"], "values": [], "samples": []}
                        )
                        merged["values"].append(cell["value"])
                        merged["samples"].append(cell["samples"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name in names:
        entry = report[name]
        print(f"\n== {name} ==  attempted {entry['attempted']}  failed {entry['failed']}  "
              f"correct {entry['correct']}  host.slowdown "
              f"{min(entry['slowdown']):.2f}..{max(entry['slowdown']):.2f}")
        for section, declared in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            for metric in declared:
                cell = entry[section].get(metric.name)
                if cell is None:
                    continue
                q1, median, q3 = quartiles(cell["values"])
                cell.update(median=median, q1=q1, q3=q3)
                print(f"  {metric.name:<36} {median:>14.4f} {cell['unit']:<6} "
                      f"[{q1:.4f} .. {q3:.4f}]  n={min(cell['samples'])}")
    if args.calibrate:
        print("\n== calibration: IQR/median over", repeats, "repeats ==")
        for metric in END_TO_END:
            if not metric.bound:
                continue
            for name in names:
                cell = report[name]["end_to_end"].get(metric.name)
                if cell is None:
                    continue
                share = spread(cell["values"])
                note = ""
                if share > metric.bound:
                    note = "  wider than the bound: widen it, or stop gating the metric"
                elif share > metric.bound / 3:
                    note = "  above a third of the bound"
                print(f"  {metric.name:<28} {name:<14} spread {share:.4f}  "
                      f"bound {metric.bound:.2f}{note}")
    if args.out:
        document = {
            "seed": args.seed, "quick": args.quick, "repeats": repeats,
            "seconds": args.seconds, "workloads": report,
        }
        Path(args.out).write_text(json.dumps(document, indent=1), encoding="utf-8")
    return 0 if all(entry["correct"] for entry in report.values()) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="busy time to measure; default: the fixed-length list")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload once, in this process (driver mode)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--traced", action="store_true",
                        help="also replay each workload once with spans")
    parser.add_argument("--quick", action="store_true",
                        help="scale / 10 and a few rounds: a smoke run, not a measurement")
    parser.add_argument("--calibrate", action="store_true",
                        help=f"{CALIBRATE_REPEATS} repeats, then print each metric's spread")
    parser.add_argument("--out", help="write the result as JSON here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.trace is not None:
        if not args.workload:
            fail("--trace needs --workload")
        return run_single(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
