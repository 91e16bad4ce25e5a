"""How fast the host runs exact rational elimination, sampled while timing.

A shared host runs the same code slower by up to half, in spells from under
a second to minutes. The benchmark therefore samples the host's speed on a
timer while the program runs and scales every time it reports to
REFERENCE_S, so that the numbers follow the program and not the host.

The sample is a fixed kernel: sparse Gaussian elimination over ``Fraction``
on dict rows, the staple of deltader's own work, written here with the
standard library alone, so that no change to deltader can make it faster or
slower. A Sampler runs it from SIGALRM every PERIOD_S seconds, in the
measuring process's main thread, and notes when each point started and
ended. An interval of program work then loses the time of the points inside
it, and is scaled by the mean of REFERENCE_S / kernel time over those points
and the nearest point on either side.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

# The kernel's time on the machine the benchmark was written on (2-vCPU VM,
# Python 3.11.7); scaled times read as seconds there.
REFERENCE_S = 0.0125
PERIOD_S = 0.25  # one point costs about 5% of the time it samples

_rng = random.Random(0)
ROWS = tuple(
    {_rng.randrange(36): Fraction(_rng.randint(1, 9) * _rng.choice((1, -1)), _rng.randint(1, 5)) for _ in range(4)}
    for _ in range(50)
)


def kernel() -> int:
    """Row-reduce ROWS exactly; returns the rank."""
    pivots = {}
    for row in ROWS:
        work = dict(row)
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                f = work[lead]
                pivots[lead] = {c: v / f for c, v in work.items()}
                break
            f = work[lead]
            for c, v in pivot.items():
                nv = work.get(c, 0) - f * v
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
    return len(pivots)


def kernel_s() -> float:
    """One kernel run's time, with the collector off.

    With the collector off the time does not depend on how much the program
    has left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Calibration points: (wall start, wall end, cpu s spent, scale)."""

    def __init__(self):
        self.starts, self.ends, self.cpus, self.scales = [], [], [], []
        self._busy = False

    def take(self, *_signal) -> None:
        if self._busy:  # a tick that came due inside a point
            return
        self._busy = True
        try:
            start, cpu = time.perf_counter(), time.process_time()
            scale = REFERENCE_S / kernel_s()
            self.cpus.append(time.process_time() - cpu)
            self.ends.append(time.perf_counter())
            self.starts.append(start)
            self.scales.append(scale)
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, start: float, end: float) -> tuple:
        """Indices of the first point inside [start, end] and of the first after it."""
        return bisect.bisect_left(self.starts, start), bisect.bisect_right(self.starts, end)

    def scale(self, start: float, end: float) -> float:
        """Mean scale of the points inside [start, end] and its two neighbours."""
        i, j = self._span(start, end)
        return statistics.mean(self.scales[max(i - 1, 0) : j + 1])

    def wall(self, start: float, end: float) -> float:
        """Wall time from start to end, less the points inside."""
        i, j = self._span(start, end)
        return end - start - sum(e - s for s, e in zip(self.starts[i:j], self.ends[i:j]))

    def cpu(self, start: float, end: float, cpu_s: float) -> float:
        """``cpu_s`` of process time spent from start to end, less the points inside."""
        i, j = self._span(start, end)
        return cpu_s - sum(self.cpus[i:j])
