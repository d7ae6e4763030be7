"""Host-speed calibration for the timed metrics.

The benchmark runs on shared virtual machines whose speed changes by up
to a factor of two within seconds: a fixed pure-Python loop alternates
between a fast and a slow state, and the share of time spent in the slow
state drifts from minute to minute.  Raw wall times of two runs of the
same code can therefore differ by more than any useful bound.

`Pace` times a fixed pure-Python kernel (free reduction of integer
words, tuples and a dict: the operations the library spends its time
on) between requests, at most every `EVERY` seconds.  A request's time
is scaled by `REFERENCE_S` ÷ the median kernel time around it, which
gives the time the request would take on a host running the kernel in
`REFERENCE_S`.  The raw times are reported next to the scaled ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from bisect import bisect_left, bisect_right

# The kernel's time on one uncontended core of a 2.1 GHz Intel Xeon: the
# scale of the calibrated figures.  Any constant would do; only ratios
# between runs on the same host matter.
REFERENCE_S = 0.00045
EVERY = 0.05  # seconds between kernel samples during a timed loop
WINDOW = 0.15  # samples this close to a request set its speed
MIN_SAMPLES = 3

_rng = random.Random(0)
_WORDS = [[_rng.randrange(8) for _ in range(60)] for _ in range(100)]


def _kernel() -> int:
    seen: dict[tuple, int] = {}
    for word in _WORDS:
        out: list[int] = []
        for x in word:
            if out and out[-1] ^ 1 == x:
                out.pop()
            else:
                out.append(x)
        key = tuple(out)
        seen[key] = seen.get(key, 0) + len(key)
    return len(seen)


class Pace:
    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the kernel once, with the collector off so that a
        collection of the library's garbage is not charged to it."""
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        gc.enable()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def tick(self, now: float) -> None:
        """Sample if the last sample is older than `EVERY`."""
        if not self.at or now - self.at[-1] >= EVERY:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """`REFERENCE_S` ÷ the median kernel time of the samples within
        `WINDOW` of the interval [t0, t1], widened to the nearest
        `MIN_SAMPLES` when there are fewer."""
        lo = bisect_left(self.at, t0 - WINDOW)
        hi = bisect_right(self.at, t1 + WINDOW)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        return REFERENCE_S / statistics.median(self.took[lo:hi])

    def scale(self, spans: list[tuple[float, float]]) -> list[float]:
        """The calibrated duration of each (start, end) interval."""
        return [(t1 - t0) * self.factor(t0, t1) for t0, t1 in spans]
