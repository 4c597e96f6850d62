"""Measure how fast the machine runs while a request runs.

On a shared 2-core x86-64 virtual machine the same pure-Python work was
measured to run up to twice as slow for minutes at a time, and up to 1.7
times as slow in bursts of about a second, while other tenants were busy.
That is far more than any change a benchmark should detect.

The probe is a fixed reference computation, independent of vinberg, with
the same character as its hot paths: exact Fraction elimination and
small-integer loops.  A Sampler times it every INTERVAL_S of wall time
from a SIGALRM handler, in the process that runs the requests, and on
demand between requests.  A phase's wall time, less the probe time spent
inside it, is then scaled by the mean of REFERENCE_S / probe time over the
samples taken during the phase and at its two ends.  A reported second is
therefore a second at the speed the probe was calibrated at.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

# median seconds of one _work() sampled during passes on an uncontended
# 2-core x86-64 virtual machine, Python 3.11.7
REFERENCE_S = 0.0007
INTERVAL_S = 0.1

_MATRIX = [
    [Fraction((i * 7 + j * 13) % 17 - 8, 1 + (i + j) % 5) for j in range(7)]
    for i in range(7)
]


def _work() -> int:
    rows = [row[:] for row in _MATRIX]
    size = len(rows)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    total = rows[-1][-1].numerator
    for i in range(3000):
        total += (i * i) % 7
    return total


class Sampler:
    """Probe samples as (start, seconds), in perf_counter time order."""

    def __init__(self):
        self.starts: list = []
        self.seconds: list = []
        self._busy = False

    def sample(self, *_):
        if self._busy:  # a timer tick inside an explicit sample
            return
        self._busy = True
        start = perf_counter()
        _work()
        self.starts.append(start)
        self.seconds.append(perf_counter() - start)
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start: float, end: float) -> float:
        """Seconds of [start, end) at reference speed, probe time excluded.

        Needs an explicit sample just before start and one just after end.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.seconds[lo:hi]
        return (end - start - sum(inside)) * speed(self.seconds[lo - 1:hi + 1])


def speed(probe_seconds) -> float:
    """Mean speed relative to the reference over the given probe samples."""
    return sum(REFERENCE_S / s for s in probe_seconds) / len(probe_seconds)
