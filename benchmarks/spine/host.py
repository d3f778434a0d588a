"""How fast the host is running right now, from a fixed reference loop.

The sandbox's CPU speed drifts by tens of percent over minutes (a quiet
pure-Python loop measured here swings between 18 and 32 ms), which is more
than the regression bounds this benchmark has to resolve. So a run samples
one fixed, program-independent loop between requests and divides every
time it reports by ``slowdown`` = median sample / ``REFERENCE_SECONDS``:
reported times are *milliseconds at reference speed*, and rates are scaled
the other way. ``host.slowdown`` itself is reported, so a raw time is the
reported one times it.

The loop imitates what the program's hot paths do — build tuples, probe
and fill a dict, append to lists, sum floats, sort — over a rotating slice
of a few-MB table, so cache and allocator pressure slow it the way they
slow the program.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: One sample on this sandbox when nothing else runs; fixes the unit only.
REFERENCE_SECONDS = 0.0030
#: A sample is taken before a request when the last one is older than this.
SAMPLE_GAP_SECONDS = 0.040

_ROWS = 20_000
_SLICE = 8_000
_STRIDE = 1_013


class HostSpeed:
    def __init__(self) -> None:
        self._table = [
            (i, f"name-{i % 977}", i * 0.5, i % 13) for i in range(_ROWS)
        ]
        self._start = 0
        self.samples: list[float] = []
        self._last = 0.0  # perf_counter() when the last sample ended

    def sample(self) -> None:
        started = perf_counter()
        start = self._start
        self._start = (start + _STRIDE) % (_ROWS - _SLICE)
        groups: dict[int, list[tuple]] = {}
        for row in self._table[start : start + _SLICE]:
            bucket = groups.get(row[3])
            if bucket is None:
                groups[row[3]] = bucket = []
            bucket.append((row[0], row[1], row[2] * 1.5))
        totals = [(key, len(rows), sum(r[2] for r in rows)) for key, rows in groups.items()]
        totals.sort()
        self._last = perf_counter()
        self.samples.append(self._last - started)

    def sample_if_due(self) -> None:
        if perf_counter() - self._last >= SAMPLE_GAP_SECONDS:
            self.sample()

    @property
    def slowdown(self) -> float:
        return statistics.median(self.samples) / REFERENCE_SECONDS


def at_reference_speed(value: float, unit: str, slowdown: float) -> float:
    """``value`` as it would read on a host running at reference speed."""
    if unit in ("s", "ms", "us"):
        return value / slowdown
    if unit in ("1/s", "MB/s"):
        return value * slowdown
    return value
