"""Host-speed sampler: times a fixed reference computation while ops run,
so that each op's time can be expressed in units of the reference as the
host ran it at that moment.

The benchmark runs on a 2-vCPU share of a machine whose speed for one
process changes by up to 1.8x in phases of seconds to minutes, so wall times
of the same code spread by 15-40% between runs a few minutes apart. An op's
time over the reference time measured with it does not depend on that phase;
see perfbench/README.md for the spreads of both.

The reference lives here, not in condind, so a change to the library moves
only the op side of the ratio. In process, a SIGALRM handler runs it between
bytecodes of the main thread, about 0.4 ms every 50 ms, and that time is
taken out of the op it interrupts. Around a child process, which runs on
another vCPU than the waiting parent, it runs just before and just after
each op instead.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05

_FRACTIONS = [Fraction(i * 7919 % 1000 + 1, i * 104729 % 997 + 1) for i in range(40)]


def reference() -> Fraction:
    """Fixed mix of small-object work: Fraction arithmetic, dict stores and
    int arithmetic, the kinds of work condind's ops are made of."""
    acc = Fraction(0)
    for f in _FRACTIONS:
        acc += f * f
    table: dict[int, int] = {}
    s = 0
    for i in range(1500):
        table[i & 63] = s
        s += i * i % 7
    return acc


class HostSpeed:
    """Reference times sampled while running; use as a context manager.

    With `interval_s` a timer samples between bytecodes of whatever runs;
    with None, only `sample()` calls and the first sample on entry do."""

    def __init__(self, interval_s: float | None = INTERVAL_S):
        self.interval_s = interval_s
        self.at: list[float] = []  # sample start times, ascending
        self.seconds: list[float] = []  # reference time of each sample

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference()
        self.at.append(start)
        self.seconds.append(time.perf_counter() - start)

    def __enter__(self) -> "HostSpeed":
        self.sample()  # at least one sample, however short the run
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def op_cost(self, start: float, elapsed: float) -> tuple[float, float]:
        """An op's time without the samples taken during it, in seconds and in
        refs: over the mean of those samples, or, when none was taken during
        it, of the samples just before and just after it."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_right(self.at, start + elapsed)
        inside = self.seconds[i:j]
        own = elapsed - sum(inside)
        ref = statistics.fmean(inside or self.seconds[max(i - 1, 0) : i + 1])
        return own, own / ref
