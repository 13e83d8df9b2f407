"""Pass clocks and calibrated seconds for a shared, noisy machine.

On a small shared host the same pass can take 12 s or 18 s depending on
what the neighbours do, and process CPU time rises with wall time, so the
slowdown is the core running slower, not the process waiting.  The
benchmark therefore measures two things side by side:

* ``PassClock`` is ``perf_counter`` with the benchmark's own work inside a
  pass (checking, sampling) paused out.
* ``SpeedProbe`` runs a fixed pure-Python reference loop from a timer
  signal every ``interval`` seconds (a signal handler, not a thread) and
  records how long it took.  ``calibrated(start, end)`` converts a stretch
  of pass-clock time into reference seconds: each piece between samples is
  scaled by ``REF_S / d``, d being the median duration of the samples
  around the one that ends the piece.  Spans too short for that, such as
  set-up, use ``run_scale``, the run's median sample.  When the machine
  slows, the loop slows with it, so calibrated seconds follow the
  program's work rather than the load.  Result files keep the raw seconds
  next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array
from contextlib import contextmanager

REF_S = 1e-3  # the nominal duration of one reference loop
_REF_ITERATIONS = 2000
SMOOTH = 5  # samples on each side of the one a piece of time is scaled by


def _reference_loop() -> int:
    total = 0
    for i in range(_REF_ITERATIONS):
        total += len(f"{i * 0.37:.2f}")
    return total


class PassClock:
    """``perf_counter`` minus the time spent inside ``pause()``."""

    def __init__(self):
        self.paused = 0.0
        self._depth = 0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    @contextmanager
    def pause(self):
        start = time.perf_counter()
        self._depth += 1
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0:
                self.paused += time.perf_counter() - start


class SpeedProbe:
    """Samples the reference loop's duration from SIGALRM while running."""

    def __init__(self, clock: PassClock, interval: float = 0.05):
        self.clock = clock
        self.interval = interval
        self.times = array("d")  # pass-clock time of each sample
        self.durations = array("d")
        self._busy = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal arriving during a sample is dropped
            return
        self._busy = True
        try:
            with self.clock.pause():
                start = time.perf_counter()
                _reference_loop()
                took = time.perf_counter() - start
            self.times.append(self.clock.now())
            self.durations.append(took)
        finally:
            self._busy = False

    def calibrated(self, start: float, end: float) -> float:
        """Reference seconds between two pass-clock times."""
        if not self.times:
            raise RuntimeError("the speed probe has taken no sample yet")
        cuts = [start]
        cuts += self.times[bisect.bisect_right(self.times, start):
                           bisect.bisect_left(self.times, end)]
        cuts.append(end)
        last = len(self.times) - 1
        total = 0.0
        for a, b in zip(cuts, cuts[1:]):
            total += (b - a) * REF_S / self._smoothed(min(bisect.bisect_left(self.times, b), last))
        return total

    def _smoothed(self, i: int) -> float:
        """Median duration of the samples within ``SMOOTH`` of sample ``i``.

        One sample is noisy (a cache refill, an interrupt); the median over
        about half a second is not, and still follows slower swings.
        """
        return statistics.median(self.durations[max(0, i - SMOOTH):i + SMOOTH + 1])

    def run_scale(self) -> float:
        """Factor from pass-clock to reference seconds at the run's median speed.

        For spans of a few tens of milliseconds, such as set-up, the samples
        nearby are too few to scale by; the run's median sample is steadier.
        """
        return REF_S / statistics.median(self.durations)

    def scales(self, times):
        """Per-time factors turning pass-clock seconds into reference seconds."""
        import numpy as np

        t = np.array(self.times)  # a copy: the handler may append meanwhile
        sample = np.minimum(np.searchsorted(t, times, side="left"), t.size - 1)
        smoothed = np.array([self._smoothed(i) for i in range(t.size)])
        return REF_S / smoothed[sample]
