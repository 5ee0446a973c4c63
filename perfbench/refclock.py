"""A clock that ticks at the speed of a quiet vCPU, for timing on a shared
host.

The machine the benchmark was built on gives it 2 vCPUs of a host shared
with other tenants.  The same Python code runs up to 1.7 times slower for
seconds at a time, and how much of a minute is slow drifts from one minute
to the next, so raw wall times of the same work spread by 30-60% between
runs.  The slowdown is shared by all pure-Python code running at that
moment.

So the benchmark runs a yardstick: a fixed pure-Python loop, independent of
genusfields, that takes about ``YARDSTICK_S`` on a quiet vCPU of that
machine.  It does the two kinds of arithmetic the jobs do: small-integer
polynomial products mod p and row operations on a matrix of multi-word
integers.  Of the loops tried, this mix tracked the slowdown of all four
workloads' jobs most closely.  :class:`RefClock` times the yardstick every ``INTERVAL_S`` of wall
time from a ``SIGALRM`` handler, while the jobs run, and maps wall time to
reference time: between two samples the reference clock advances at
``YARDSTICK_S / k``, where ``k`` is the local yardstick time (a running
median over ``SMOOTH`` samples, so one sample hit by an interrupt does not
count).  Each sample runs the yardstick twice and keeps the second time,
so that it starts warm, as it does when it runs back to back.  The clock
stands still while the yardstick runs.  A wall-clock interval that ran at
quiet speed keeps its length; one that ran 1.5 times slower is shortened by
that factor.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

YARDSTICK_S = 100e-6
INTERVAL_S = 0.02
SMOOTH = 5

_P = 10007
_A = list(range(1, 25))
_B = list(range(7, 31))
_OUT = [0] * 47
_BIG = 10 ** 80 + 7
_ROWS = [[(i * 7919 + j * 104729) % 1000003 for j in range(12)]
         for i in range(12)]


def yardstick() -> float:
    """Seconds one pass of the yardstick takes.  It allocates no container
    objects, so it never starts a garbage collection.  The matrix rows are
    updated in place; after the first pass their entries are 80-digit
    residues, so every later pass does the same work."""
    a, b, out, p, rows, big = _A, _B, _OUT, _P, _ROWS, _BIG
    start = perf_counter()
    for i in range(24):
        x = a[i]
        for j in range(24):
            out[i + j] = (out[i + j] + x * b[j]) % p
    pivot = rows[0]
    for r in range(1, 12):
        row = rows[r]
        f = row[0]
        for j in range(12):
            row[j] = (row[j] * 3 - f * pivot[j]) % big
    return perf_counter() - start


def quiet_factor(samples: int = 7) -> float:
    """``YARDSTICK_S`` over the median of ``samples`` yardstick times taken
    now: the factor that turns a wall time measured around this moment into
    reference time."""
    return YARDSTICK_S / statistics.median(yardstick() for _ in range(samples))


class RefClock:
    """Samples the yardstick from a timer signal between :meth:`start` and
    :meth:`stop`; afterwards :meth:`span` converts wall-clock intervals
    (``perf_counter`` readings) inside that stretch into reference
    seconds."""

    def __init__(self):
        self.starts: list[float] = []
        self.ks: list[float] = []
        self._ends: list[float] = []
        self._ref: list[float] = []
        self._rates: list[float] = []
        self._previous = None

    def _sample(self, *_) -> None:
        # the first pass warms the caches the jobs have filled with their
        # own data; the second is the sample
        start = perf_counter()
        yardstick()
        k = yardstick()
        self.starts.append(start)
        self.ks.append(k)
        self._ends.append(perf_counter())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        n, half = len(self.ks), SMOOTH // 2
        smooth = [statistics.median(self.ks[max(0, i - half):i + half + 1])
                  for i in range(n)]
        self._rates = [YARDSTICK_S * 2 / (smooth[i] + smooth[min(i + 1, n - 1)])
                       for i in range(n)]
        self._ref = [0.0]
        for i in range(n - 1):
            gap = self.starts[i + 1] - self._ends[i]
            self._ref.append(self._ref[-1] + gap * self._rates[i])

    def ref(self, t: float) -> float:
        """Reference time at the wall-clock reading ``t``."""
        i = max(bisect.bisect_right(self.starts, t) - 1, 0)
        return self._ref[i] + (t - self._ends[i]) * self._rates[i]

    def span(self, start: float, end: float) -> float:
        return self.ref(end) - self.ref(start)

    def slowdown(self) -> float:
        """Median yardstick time over ``YARDSTICK_S``: how much slower than
        quiet the machine ran during this stretch."""
        return statistics.median(self.ks) / YARDSTICK_S
