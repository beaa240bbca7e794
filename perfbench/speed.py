"""Host-speed probe: scales measured times to a reference speed.

The host the benchmark was written on (2 vCPUs of a shared Xeon) runs the
same Python code at two speeds about twice apart and switches between them
every few tenths of a second, so raw times of identical work spread across
runs by more than any bound worth setting.  While a run measures, a timer
signal times a small fixed pure-Python kernel every `INTERVAL_S`.  A time
is multiplied by `KERNEL_REF_S` times the mean kernel speed (one over the
kernel time) of the samples taken while it ran: the work done in a span is
its length times its mean speed, so an operation that spans both speeds is
scaled by their time-weighted mix.  (Scaled by the median kernel time
instead, the 30-second `repro-walpha` read 27 to 31 s in seven of ten runs
and 34 to 36 s in the other three.)  Sampling every 10 ms rather than
every 50 gives a 0.1 s group of calls ten samples instead of two, which
took the spread of `op_tail_ms` over five `exact_norms` runs from 20% to 3%.

The kernel is the benchmark's own code and allocates no object the garbage
collector tracks.  It runs twice per sample and only the second run is
timed, so the caches the library's work left cold do not slow it: timed
cold, it read up to 1.7 times slower during a memory-heavy set-up and hid
part of that set-up's cost.  NOTES.md records the check that known
slowdowns show in full in the scaled times.  The probe's own time inside an
operation is taken out of the operation's time.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left

INTERVAL_S = 0.01
# a span shorter than the sampling interval is scaled by the latest samples
LEAST_SAMPLES = 2
# about the median (warm) kernel time during runs on the host described above
KERNEL_REF_S = 50e-6


def _kernel():
    table = {}
    total = 0
    for i in range(200):
        key = i * 16 + i % 13
        table[key] = table.get(key, 0) + i
        total += (i * i) % 97
    return total


class SpeedProbe:
    """Context manager sampling the kernel on SIGALRM while it is open."""

    def __init__(self):
        self.when = array("d")
        self.took = array("d")
        self.spent = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        first = time.perf_counter()
        _kernel()
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.when.append(end)
        self.took.append(end - start)
        self.spent.append(end - first)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start, end):
        """Time spent in the probe between `start` and `end`."""
        return sum(self.spent[bisect_left(self.when, start):
                             bisect_left(self.when, end)])

    def scale(self, start, end):
        """`KERNEL_REF_S` times the mean kernel speed of the samples taken
        from `start` to `end` (at least the `LEAST_SAMPLES` latest)."""
        hi = bisect_left(self.when, end)
        lo = min(bisect_left(self.when, start), max(0, hi - LEAST_SAMPLES))
        window = self.took[lo:hi]
        if not window:
            return 1.0
        return KERNEL_REF_S * statistics.fmean([1.0 / took for took in window])
