"""The host's speed, sampled while the benchmark runs, and times scaled to a fixed speed.

On a small shared host the CPU's speed can change by 2x in spells that last
from a fraction of a second to minutes, and process time moves with wall
time.  So the measuring process samples the speed it runs at: ``Sampler``
times a fixed pure-Python loop in a ``SIGALRM`` handler every
``PERIOD_S``, between the bytecodes of whatever call is running.  A
time taken from ``start`` to ``end`` is then scaled by ``REF_S`` over the
mean loop time of the samples taken inside that interval and the nearest
one on each side.  The loop is part of the benchmark, so no change to
symchain can move it; a change to symchain moves scaled times as it moves
raw ones.

The host does not slow all work alike, so the loop is chosen to resemble
the workload's own.  ``mixed_loop`` mixes interpreted steps on small
integers and dicts, ``Fraction`` arithmetic that allocates, and products of
6,000-bit integers; on repeated fixed calls of ``zloc_theorems`` and
``graded_theorems_cli`` this mix left less spread than any one part alone,
and a sample every 25 ms less than one every 100 ms.  ``integer_homology``
spends its time on products of integers of up to 300,000 bits, which the
host slows by more: its calls are scaled by ``bigint_loop``, one product of
40,000-bit integers.  A product of 63,000-bit integers left 5.7% spread
between its jobs where the mix left 9.4%.  Set-up is interpreted work on
every workload, so it is scaled by ``mixed_loop``.  Both loops take about
``REF_S`` at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REF_S = 0.001  # a loop's time at the reference host speed that scaled times assume
PERIOD_S = 0.025  # interval between two samples; each costs about 4% of it
BIG = 3**4000  # 6,340 bits
HUGE = 3**25000  # 39,625 bits


def mixed_loop() -> float:
    """Seconds taken by a fixed mix of integer, Fraction and big-integer work."""

    def step(x: int, i: int) -> int:
        return (x * 31 + i) % 1_000_003

    start = time.perf_counter()
    x, table = 0, {}
    for i in range(1_300):
        x = step(x, i)
        table[i & 1023] = x
    for i in range(1, 40):
        q = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(3, i % 11 + 1) + Fraction(1, i % 3 + 1)
        table[i, i & 7] = [q, i]
    for i in range(7):
        x = BIG * (BIG + i) + i
    return time.perf_counter() - start


def bigint_loop() -> float:
    """Seconds taken by one product of two 40,000-bit integers."""
    start = time.perf_counter()
    HUGE * (HUGE + 1)
    return time.perf_counter() - start


def loop_for(workload: str):
    """The loop whose speed a workload's times are scaled by."""
    return bigint_loop if workload == "integer_homology" else mixed_loop


def scale(seconds: float, loop_s: float) -> float:
    """Seconds measured while the loop took loop_s, at the reference speed."""
    return seconds * REF_S / loop_s


class Sampler:
    """Samples of the loop time, taken by a timer signal and on request."""

    def __init__(self, loop=mixed_loop) -> None:
        self.loop = loop
        self.ends: list[float] = []  # perf_counter at the end of each sample
        self.loops: list[float] = []  # the loop's seconds in each sample
        self.spent = 0.0  # seconds spent sampling, to take out of measured times

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        loop = self.loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.loops.append(loop)
        self.spent += end - start

    def sample(self) -> None:
        """One sample now, with the timer's signal held off meanwhile."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._tick()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def loop_s(self, start: float, end: float) -> float:
        """Mean loop time over [start, end], with the nearest sample on each side."""
        lo = bisect_left(self.ends, start)
        hi = bisect_right(self.ends, end)
        return statistics.fmean(self.loops[max(lo - 1, 0) : hi + 1])
