"""The one fuzz loop: seed range -> case -> check -> shrink -> corpus -> report.

A :class:`Profile` is a ``generate``/``check`` pair; everything else about
a sweep — the seed loop, crash handling, minimization, reproducer files,
the summary — lives here once, so ``--stop-after``, ``--no-shrink`` and
``--corpus-dir`` mean the same thing under every profile. DESIGN §8.3
states the loop's contract: typed failure kinds, an untyped exception as
a ``crash`` failure rather than the end of the sweep, what shrinking
preserves, and the corpus layout.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.fuzz.corpus import write_reproducer
from repro.fuzz.shrink import shrink as greedy_shrink

#: Traceback frames kept in a crash failure's detail.
CRASH_FRAMES = 3
#: Clean cases between two progress lines.
PROGRESS_EVERY = 25


@dataclass(frozen=True)
class Failure:
    """One broken invariant, with everything needed to replay it."""

    seed: int
    kind: str
    detail: str
    case: Any = None
    config: str | None = None

    def __str__(self) -> str:
        where = f" [{self.config}]" if self.config else ""
        return f"{self.kind}{where} (seed {self.seed})\n{self.detail}"

    def describe(self) -> dict[str, Any]:
        """JSON-ready: the case's own description (fault plan, scenario,
        knobs — when it has one) plus what failed."""
        shape = getattr(self.case, "describe", dict)()
        return {
            **shape,
            "seed": self.seed,
            "failure": self.kind,
            "config": self.config,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Profile:
    """What a sweep runs: ``generate(seed)`` builds a case, ``check(case,
    tally)`` returns its failure (or None) and counts what it exercised."""

    name: str
    generate: Callable[[int], Any]
    check: Callable[[Any, Counter], Failure | None]
    #: Structurally smaller variants of a case, best reductions first.
    candidates: Callable[[Any], Iterator[Any]] | None = None
    #: Writes a failure's case as a typed reproducer; returns its path.
    save: Callable[[Failure, Path | str], Path] | None = None


@dataclass
class Report:
    profile: str
    cases: int = 0
    #: What the checks exercised: oracle comparisons, plan-space runs,
    #: scenario mixes, ... — whatever the profile's ``check`` counted.
    tally: Counter = field(default_factory=Counter)
    failures: list[Failure] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        mix = ", ".join(f"{key}={n}" for key, n in sorted(self.tally.items()))
        lines = [
            f"{self.profile}: {self.cases} cases, {len(self.failures)} failures"
            + (f" ({mix})" if mix else "")
        ]
        lines.extend(str(failure) for failure in self.failures)
        lines.extend(f"reproducer written: {path}" for path in self.corpus_paths)
        return "\n".join(lines)


def _check(
    profile: Profile, seed: int, case: Any, tally: Counter
) -> Failure | None:
    """Generate (when ``case`` is None) and check one case; an untyped
    exception from either is the case's failure."""
    try:
        if case is None:
            case = profile.generate(seed)
        return profile.check(case, tally)
    except Exception as error:  # noqa: BLE001 - the loop must keep sweeping
        frames = traceback.format_tb(error.__traceback__)[-CRASH_FRAMES:]
        detail = f"{type(error).__name__}: {error}\n{''.join(frames)}"
        return Failure(seed, "crash", detail.rstrip(), case)


def _signature(failure: Failure) -> tuple[str, str | None, str]:
    """What shrinking must preserve: kind, config, and — for crashes and
    error kinds — the error type, so minimization cannot morph one bug
    into another."""
    error_type = ""
    if failure.kind == "crash" or failure.kind.endswith("error"):
        error_type = failure.detail.strip().split(":")[0]
    return (failure.kind, failure.config, error_type)


def _minimize(profile: Profile, failure: Failure) -> Failure:
    wanted = _signature(failure)

    def still_fails(candidate: Any) -> bool:
        found = _check(profile, failure.seed, candidate, Counter())
        return found is not None and _signature(found) == wanted

    small = greedy_shrink(failure.case, profile.candidates, still_fails)
    return _check(profile, failure.seed, small, Counter()) or failure


def sweep(
    profile: Profile,
    seed: int,
    n: int,
    stop_after: int = 5,
    shrink: bool = True,
    corpus_dir: Path | str | None = None,
    progress: Callable[[str], None] | None = None,
) -> Report:
    """Run ``profile`` on seeds ``seed .. seed + n - 1``.

    Failures are minimized (``shrink``), written to ``corpus_dir`` when
    given, and the sweep stops early after ``stop_after`` of them.
    """
    report = Report(profile.name)
    for case_seed in range(seed, seed + n):
        failure = _check(profile, case_seed, None, report.tally)
        report.cases += 1
        if failure is None:
            if progress is not None and report.cases % PROGRESS_EVERY == 0:
                progress(
                    f"[{profile.name}] {report.cases}/{n} cases, "
                    f"{len(report.failures)} failures"
                )
            continue
        if shrink and profile.candidates is not None and failure.case is not None:
            failure = _minimize(profile, failure)
        report.failures.append(failure)
        if progress is not None:
            headline = str(failure).split("\n", 1)[0]
            reason = failure.detail.strip().split("\n", 1)[0]
            progress(f"[{profile.name}] FAILED {headline}: {reason}")
        if corpus_dir is not None:
            if profile.save is not None and failure.case is not None:
                path = profile.save(failure, corpus_dir)
            else:
                path = write_reproducer(
                    corpus_dir,
                    {"kind": f"{profile.name}-failure", **failure.describe()},
                )
            report.corpus_paths.append(path)
        if len(report.failures) >= stop_after:
            break
    return report


def cli_sweep(
    profile: Profile,
    seed: int,
    n: int,
    stop_after: int,
    shrink: bool = True,
    corpus_dir: Path | str | None = None,
) -> int:
    """The tail every command line shares: sweep with progress on stdout,
    print the summary, exit status 1 on any failure."""
    start = time.perf_counter()
    report = sweep(
        profile,
        seed,
        n,
        stop_after=stop_after,
        shrink=shrink,
        corpus_dir=corpus_dir,
        progress=lambda message: print(message, flush=True),
    )
    print(report.summary())
    print(f"elapsed: {time.perf_counter() - start:.1f}s")
    return 0 if report.ok else 1
