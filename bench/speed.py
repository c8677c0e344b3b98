"""How fast the host runs while an operation runs, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants, and the same
code runs up to 1.7 times as slow while neighbours load the shared core.
The host's speed changes within a second and drifts over minutes, so
medians over passes cannot remove it.  The benchmark therefore runs a fixed
kernel, which never calls the library, from a timer signal every
``INTERVAL_S`` seconds *while* each operation runs.  The kernel's own time is
taken out of the operation's time (``Meter.clock`` stands still while it
runs), and the operation's net time is scaled by ``reference time / mean
kernel time`` over the samples taken during it: a time is reported in
seconds at the reference speed.  A change to the library leaves the kernel
alone, so it moves the scaled times as it moves the raw ones; a slower host
moves the kernel and the operation alike, so it cancels.  The mean, not the
median, matches an operation's time, which is the integral of the host's
speed over the operation, stalls included.  The raw times are kept in the
run's record.

On a 2-core Xeon the log of the interpreted kernel's mean time over an
operation moves with the log of ``maximize``'s and
``enumerate_endomorphisms``' times at a slope of 1.1 and a correlation of
0.98; samples taken right after the operation instead reached only 0.4 to
0.8.  Numpy on large arrays slows down less than interpreted code, so the
integer scans get the array kernel as well.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

_BLOCK = np.arange(200_000, dtype=np.int64)


def interpreted() -> int:
    """Interpreted integer and dict work, about 3 ms."""
    total, seen = 0, {}
    for i in range(30_000):
        total += i * i % 7
        seen[i & 255] = total
    return total


def arrays() -> int:
    """int64 arithmetic on a 1.6 MB block, as in the composition scans, about 2 ms."""
    return int(((_BLOCK * 3 + 7) % 1009).max())


# About the mean time of each kernel on a quiet 2-core Xeon (2.0 GHz,
# Python 3.11, numpy 2.4).  They only set the unit: every reported time is
# multiplied by the reference time of its workload's kernels.
REFERENCE_S = {interpreted: 0.0030, arrays: 0.0022}

KERNELS = {
    "optimize": (interpreted,),
    "extremal": (interpreted, arrays),
    "rigidity": (interpreted,),
}

# Seconds between kernel samples during an operation, and the fewest samples
# an operation is scaled by: a shorter operation is followed by the rest.
INTERVAL_S = 0.04
MIN_SAMPLES = 3


class Meter:
    """Samples one workload's kernel and turns net seconds into reference seconds.

    The newest meter of a process owns ``SIGALRM``.
    """

    def __init__(self, workload: str):
        self.kernels = KERNELS[workload]
        self.reference_s = sum(REFERENCE_S[k] for k in self.kernels)
        self.stolen = 0.0
        self.samples: list[float] = []
        self._sampling = False
        # Kept for the life of the process: a signal still pending after the
        # timer is stopped must find this handler, not the default one.
        signal.signal(signal.SIGALRM, self._sample)

    def clock(self) -> float:
        """``perf_counter`` that stands still while the kernel runs."""
        return perf_counter() - self.stolen

    def _sample(self, *_signal) -> None:
        if self._sampling:  # a signal that arrives during a sample is dropped
            return
        self._sampling = True
        began = perf_counter()
        for kernel in self.kernels:
            kernel()
        spent = perf_counter() - began
        self.samples.append(spent)
        self.stolen += spent
        self._sampling = False

    def measure(self, fn) -> tuple[float, float, int]:
        """Run ``fn()`` while sampling the kernel.

        Returns its net seconds, the same at the reference speed, and the
        number of samples they were scaled by.
        """
        self.samples = []
        began = self.clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            fn()
        finally:
            net = self.clock() - began
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        samples = self.samples
        return net, net * self.reference_s / statistics.fmean(samples), len(samples)
