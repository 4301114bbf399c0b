"""Host-speed calibration for the benchmark's timings.

The shared 2-core hosts this benchmark runs on change speed by up to 2x
over seconds to minutes, driven by other tenants: a fixed pure-Python loop
measured back to back reads anywhere from 0.67 to 1.4 times its median, and
the same quad_tune task takes 3 s in one minute and 6 s in the next. Raw
wall times of two runs of the same code then differ by more than any change
worth measuring.

So each task's time is also reported rescaled to a reference speed.
While a task runs, SIGALRM fires every INTERVAL_S and its handler times one
calibration unit, a fixed piece of pure-Python work that touches neither
muonlab nor BLAS. The task's time, minus the time spent in the handler, is
multiplied by UNIT_S over the mean unit time seen during the task. Measured
over 19 consecutive quad_tune tasks, this cut the coefficient of variation
of task times from 0.17 to 0.07.

The rescaling assumes the program and the calibration unit slow down
together. A change that alters how busy the program keeps the other core
(BLAS threads, for example) can move the unit's speed as well; the raw
times are kept next to the rescaled ones for that case.
"""

from __future__ import annotations

import signal
import statistics
import time

# Duration of one calibration unit at the reference speed: its typical
# duration on the 2-core reference host (Python 3.11).
UNIT_S = 3.0e-4
INTERVAL_S = 0.02


def unit() -> int:
    """The calibration unit: fixed pure-Python integer work."""
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


class Sampler:
    """Times fn() and samples the host speed from SIGALRM while it runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        unit()
        d = time.perf_counter() - start
        self.samples.append(d)
        self.spent += d

    def time(self, fn):
        """Returns (fn(), raw seconds, rescaled seconds)."""
        self.samples, self.spent = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn()
            raw = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if not self.samples:  # fn() ended before the first tick
            self._tick(None, None)
            self.spent = 0.0
        return result, raw, (raw - self.spent) * UNIT_S / statistics.mean(self.samples)
