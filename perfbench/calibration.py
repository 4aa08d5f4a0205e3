"""Scale measured times to a reference machine speed.

A shared host changes speed for seconds to minutes at a time: on the
2-vCPU VM this benchmark was tuned on, the same reconkit calls ran up to
1.7x faster or slower from one minute to the next, while their ratio to a
fixed pure-Python loop stayed within 1.1x. So the benchmark samples the
loop every PERIOD_S while it measures, from a timer signal, and scales the
time of each piece of work by the machine's mean speed over the samples
taken during it and just around it. A scaled time reads as the time the
work would have taken at the tuning machine's median speed.

The samples' own time is kept out of every measurement: `now()` is a
clock that stops while a sample runs. Nothing in reconkit can change the
loop: it calls no reconkit code, and the garbage collector is off while it
runs.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

# Median duration of one loop on the tuning machine (2-vCPU Xeon VM,
# CPython 3.11.7).
REFERENCE_S = 0.0017
PERIOD_S = 0.05


def _loop() -> int:
    """Small lists, sets, sorts and tuples: the mix of reconkit's inner
    loops, which tracks their speed better than pure arithmetic does."""
    acc = 0
    for i in range(300):
        xs = [(i * j) % 97 for j in range(20)]
        t = tuple(sorted(set(xs)))
        acc += len(t) + t[0]
    return acc


class Calibrator:
    """Samples the loop, on demand or every PERIOD_S inside `sampling()`,
    and keeps every sample with the moment (on the `now()` clock) it was
    taken."""

    def __init__(self) -> None:
        _loop()  # warm the interpreter's specialisation of the loop
        self.samples: list[float] = []
        self.at: list[float] = []
        self.stolen = 0.0  # seconds spent sampling
        self._busy = False

    def now(self) -> float:
        """perf_counter() without the time spent sampling."""
        return perf_counter() - self.stolen

    def sample(self, *_signal, rounds: int = 1) -> None:
        """Time `rounds` loops back to back and keep their mean as one sample."""
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # the collector's work depends on reconkit's heap
        t0 = perf_counter()
        for _ in range(rounds):
            _loop()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.samples.append((t1 - t0) / rounds)
        self.at.append(t0 - self.stolen)
        self.stolen += t1 - t0
        self._busy = False

    @contextmanager
    def sampling(self, timer: bool = True):
        """Sample on entry and on exit, and every PERIOD_S in between when
        `timer` is set. Leave the timer off while a child process works:
        it shares this process's CPU, and a sample taken then would time
        the child's use of it."""
        self.sample()
        if timer:
            previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """The machine's mean speed from `start` to `end` (on the `now()`
        clock): the mean, over the last sample before `start`, every sample
        in between and the first one after `end`, of REFERENCE_S over the
        sample's time. The mean, not the median: the host flips between a
        fast and a slow state, and work that spans both ran at their
        average."""
        first = max(0, bisect.bisect_left(self.at, start) - 1)
        last = min(len(self.at) - 1, bisect.bisect_right(self.at, end))
        return statistics.fmean(REFERENCE_S / t for t in self.samples[first : last + 1])
