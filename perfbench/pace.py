"""Paced time: the benchmark's clock on a host whose speed drifts.

On a shared host the same single-threaded code runs at two speeds up to
1.8x apart, and switches between them every few seconds, so the wall
times of whole runs spread by a third.  While a run measures, a timer
signal interrupts it every ``PERIOD_S`` seconds and times one pass of a
short fixed reference loop of small-rational arithmetic, which slows
with the host as the interpreter-bound code of ``detsched`` does.

An interval's paced time is its wall time, less the samples taken inside
it, scaled by ``REFERENCE_S`` over the mean of the samples around it: the
seconds the interval would have taken at the pace at which the reference
loop takes ``REFERENCE_S``.  The loop uses only the standard library, so
no change to ``detsched`` changes it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1
MARGIN_S = 0.15  # samples this close to an interval also count for it
# About the loop's median on the host the benchmark was written on (a
# 2-vCPU Xeon, Python 3.11.7), so paced seconds read close to its wall
# seconds there.
REFERENCE_S = 0.00125


def reference() -> int:
    total = 0
    for i in range(1, 200):
        x = Fraction(i, 7) * Fraction(3, i + 5) + Fraction(1, 3)
        total += x.numerator % 7
    return total


class Pacer:
    """Samples the reference loop from ``SIGALRM`` while it is entered."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._previous = None

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        reference()
        self.starts.append(started)
        self.seconds.append(time.perf_counter() - started)

    def paced(self, start: float, end: float) -> float:
        """Paced seconds of the wall interval ``[start, end]``; the samples
        around it are those within ``MARGIN_S`` and the nearest on each
        side."""
        lo = max(bisect.bisect_left(self.starts, start - MARGIN_S) - 1, 0)
        hi = bisect.bisect_right(self.starts, end + MARGIN_S) + 1
        starts, seconds = self.starts[lo:hi], self.seconds[lo:hi]
        inside = sum(s for t, s in zip(starts, seconds) if start <= t and t + s <= end)
        return (end - start - inside) * REFERENCE_S / statistics.fmean(seconds)
