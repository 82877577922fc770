"""Times scaled to a fixed reference speed of the machine.

The speed of a shared virtual machine drifts: a fixed pure-Python loop can
take a third longer for tens of seconds at a time, and a benchmark run
that falls in a slow stretch reads slow for reasons outside the program.
While the probe runs, a timer signal every ``PERIOD_S`` runs ``probe_loop``
and records how long it took. An interval measured with ``stamp()``
excludes that probe time, and ``scaled(a, b)`` reports it at the speed
where the loop takes ``REFERENCE_S``: the interval times ``REFERENCE_S``
over the median loop time of the samples taken within ``WINDOW_S`` of it.
The loop uses no code of the library, so a change to the library moves
scaled times exactly as it moves measured ones.

The loop has two halves because the library's code slows down in two
ways: integer arithmetic in the interpreter tracks the small-object code
of tiny items when the other core is busy, and chasing pointers through a
table larger than the caches tracks the array work of large items when
memory is contended. Their sum tracked both kinds of fuzz item better
than either half alone.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

PERIOD_S = 0.4
WINDOW_S = 0.8
LOOP_STEPS = 20_000
HOPS = 15_000
TABLE_SIZE = 1 << 20  # 8 MB of pointers to ints spread over about 30 MB more
REFERENCE_S = 0.006  # a fixed scale, near the loop's time within a run on a 2-core x86-64 VM


def hop_table() -> list[int]:
    """A permutation of range(TABLE_SIZE) that is one cycle (a full-period LCG)."""
    return [(1_664_525 * i + 1_013_904_223) % TABLE_SIZE for i in range(TABLE_SIZE)]


def probe_loop(table: list[int]) -> int:
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
    j = 0
    for _ in range(HOPS):
        j = table[j]
    return total + j


class SpeedProbe:
    def __init__(self) -> None:
        self.table = hop_table()
        self.spent = 0.0  # probe time so far, excluded from stamps
        self.stamps: list[float] = []  # stamp() at the start of each sample
        self.loops: list[float] = []  # seconds the loop took in each sample

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_loop(self.table)
        t1 = time.perf_counter()
        self.stamps.append(t0 - self.spent)
        self.loops.append(t1 - t0)
        self.spent += t1 - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def stamp(self) -> float:
        """perf_counter() minus the probe time so far, read with the probe held off."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self.spent
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def loop_time(self, start: float, end: float) -> float:
        """Median loop time of the samples within WINDOW_S of [start, end]."""
        lo = bisect.bisect_left(self.stamps, start - WINDOW_S)
        hi = bisect.bisect_right(self.stamps, end + WINDOW_S)
        if lo == hi:  # none that close (the signal waits for a long C call): the one before
            return self.loops[max(lo - 1, 0)]
        return statistics.median(self.loops[lo:hi])

    def rescale(self, seconds: float, start: float, end: float) -> float:
        """`seconds` measured between two stamps, at the reference speed."""
        return seconds * REFERENCE_S / self.loop_time(start, end)

    def scaled(self, start: float, end: float) -> float:
        """Seconds between two stamps, at the reference speed."""
        return self.rescale(end - start, start, end)
