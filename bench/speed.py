"""Machine speed, measured by a reference loop interleaved with the work.

On a shared machine, load from neighbours slows every process by up to
about half, in CPU time as well as in wall time, in spells that last from
seconds to minutes.  Raw times would mostly measure the neighbours.  So
before every timed sample (an operation, a row of a ``reproduce`` pass or
a set-up interpreter) the benchmark runs ``probe``, a fixed pure-Python
loop that shares no code with the engine, and scales the sample to the
reference speed:

    scaled = raw * REFERENCE_S / median(the probes that bracket the sample)

A change to the engine moves the raw time and leaves the probe alone, so
it moves the scaled time by the same factor; a spell of load slows both,
and cancels.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Optional

# The median probe duration over the runs made on the shared 2-core x86_64
# VM the benchmark was written on, under Python 3.11.7: scaled times read
# as times on that machine under its usual load.
REFERENCE_S = 0.002


def _reference_loop(n: int) -> None:
    table = {}
    for i in range(n):
        key = ("probe", i % 97, str(i % 31))
        table[key] = table.get(key, 0) + i
    sorted(map(str, table.values()))


def probe() -> float:
    """Seconds one pass of the reference loop takes.

    An untimed short pass first refills the caches the engine's work
    evicted, and the collector is off, so that what the engine left
    behind cannot slow the timed pass."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _reference_loop(500)
        start = time.perf_counter()
        _reference_loop(3000)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Probe durations, in the order they were taken."""

    def __init__(self):
        self.probes: List[float] = []

    def probe(self) -> float:
        seconds = probe()
        self.probes.append(seconds)
        return seconds

    def scale(self, first: int, end: Optional[int] = None) -> float:
        """``REFERENCE_S`` over the median of the probes that bracket a
        sample: from probe ``first``, taken just before it, through probe
        ``end``, taken just after it (by default ``first + 1``).  A probe
        past the last one taken is left out."""
        end = first + 1 if end is None else end
        return REFERENCE_S / statistics.median(self.probes[first:end + 1])
