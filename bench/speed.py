"""Machine-speed probe, so that timings survive a host whose speed drifts.

On a shared 2-CPU machine the same helistar work takes up to 1.5 times longer
from one half-minute to the next, because of load outside the process. A run
of 25 s sits in one such regime, so medians over many runs still spread by
15-30%. The benchmark therefore times a probe every INTERVAL_S while a
workload runs: a fixed piece of interpreter and small-array work, like
helistar's own, that never calls helistar. Each timed section's time, less
the probes that ran inside it, is scaled to reference speed,

    seconds * REFERENCE_PROBE_S / (median probe time within WINDOW_S of it),

so a change to helistar moves the section and not the probe and shows in
full, while a change of machine speed moves both and cancels. Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# one probe at reference speed: about its median on the machine whose figures
# bench/README.md quotes; it fixes the scale of every reported time
REFERENCE_PROBE_S = 0.0035
WINDOW_S = 1.0
INTERVAL_S = 0.2  # probe period while a workload runs
BURST = 20  # probes taken together around a section run without the timer

_V = np.array([0.3, -1.2, 0.7])


def probe() -> float:
    """Seconds for one fixed piece of work."""
    t0 = time.perf_counter()
    acc = 0.0
    seen = {}
    for i in range(100):
        w = np.cross(_V, _V[::-1] + i)
        acc += math.sqrt(float(np.dot(w, w)))
        seen[i % 7] = acc
    return time.perf_counter() - t0


class Speed:
    """Probe times in time order; scales timed sections to reference speed."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.times: list[float] = []
        self._probing = False

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self._probing = True
            try:
                t0 = time.perf_counter()
                seconds = probe()
            finally:
                self._probing = False
            self.starts.append(t0)
            self.times.append(seconds)

    def _on_alarm(self, _signum, _frame) -> None:
        if not self._probing:  # an alarm during a probe is dropped, not nested
            self.sample()

    @contextmanager
    def sampling(self, interval: float = INTERVAL_S):
        """Probe every `interval` seconds, from SIGALRM, inside the with-block.

        The handler runs in this thread between bytecodes, so a probe that
        lands inside a timed section adds its own time to the section; scale()
        takes it out again.
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def probing(self, start: float, end: float) -> float:
        """Seconds spent probing in [start, end)."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        return sum(self.times[lo:hi])

    def factor(self, start: float, seconds: float) -> float:
        """REFERENCE_PROBE_S over the median probe near [start, start + seconds]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        window = self.times[lo:hi]
        if not window:  # nothing that close: the nearest probe in time
            i = bisect.bisect_left(self.starts, start)
            near = min((j for j in (i - 1, i) if 0 <= j < len(self.starts)),
                       key=lambda j: abs(self.starts[j] - start))
            window = [self.times[near]]
        return REFERENCE_PROBE_S / statistics.median(window)

    def own(self, start: float, seconds: float) -> float:
        """A section's seconds less the probes that ran inside it."""
        return seconds - self.probing(start, start + seconds)

    def scale(self, start: float, seconds: float) -> float:
        """A section's own seconds at reference speed."""
        return self.own(start, seconds) * self.factor(start, seconds)

    def median_probe_s(self) -> float:
        return statistics.median(self.times)
