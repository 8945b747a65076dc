"""The host's speed, measured alongside the timed work.

The speed of the host the benchmark was built on drifts by up to half over
tens of seconds as other tenants come and go; that moves every time between
runs by more than any useful bound.  So a fixed pure-Python kernel that
shares no code with isoprod is timed around and, by SIGALRM, during the
timed work, and each pass and set-up is scaled by REFERENCE_KERNEL_S over the
mean kernel time sampled across it.  Times are thus reported in seconds of
a host that runs the kernel in REFERENCE_KERNEL_S (its median on a 2.1 GHz
Xeon with 2 vCPUs, Python 3.11.7).  A change to isoprod moves scaled times
as it moves unscaled ones; a change in the host's speed moves the kernel too
and cancels out.
"""

from __future__ import annotations

import random
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

from checks import rank_mod

REFERENCE_KERNEL_S = 0.0019
SAMPLE_EVERY_S = 0.25
_rng = random.Random(0)
KERNEL_MATRICES = [[[_rng.randrange(7) for _ in range(10)] for _ in range(10)] for _ in range(8)]


def kernel_s() -> float:
    """Median of three timings of the kernel: a mod-7 elimination and dict updates."""
    times = []
    for _ in range(3):
        start = perf_counter()
        for matrix in KERNEL_MATRICES:
            rank_mod(matrix, 7)
        counts = {}
        for i in range(4000):
            counts[i % 97, i % 13] = counts.get((i % 89, i % 11), 0) + 1
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Kernel samples, taken on request and every SAMPLE_EVERY_S while armed.

    `sampling_s` is the time spent sampling; clock() leaves it out, so
    sampling inside a timed region does not count as the region's work.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.sampling_s = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm during a sample taken on request
            return
        self._busy = True
        try:
            start = perf_counter()
            self.samples.append(kernel_s())
            self.sampling_s += perf_counter() - start
        finally:
            self._busy = False

    def clock(self) -> float:
        """perf_counter() less the time spent sampling: a clock of timed work."""
        return perf_counter() - self.sampling_s

    def time(self, fn, *args):
        """(unscaled seconds of fn(*args), without sampling; its result)."""
        start = self.clock()
        result = fn(*args)
        return self.clock() - start, result

    def scale(self, seconds: float, first_sample: int) -> float:
        """Reference seconds of work timed across samples[first_sample:]."""
        return seconds * REFERENCE_KERNEL_S / statistics.mean(self.samples[first_sample:])

    @contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
