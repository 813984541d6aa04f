"""How fast the host runs, from a fixed loop timed on a thread of its own.

The benchmark runs on shared machines whose speed drifts.  On a 2-vCPU KVM
guest (Intel Xeon, model 207) a fixed pure-Python loop took 3.3 ms in one
second and 4.8 ms in the next, and 23 ms or 33 ms for a longer loop twenty
minutes apart; CPU time drifts with it, so neither wall-clock nor CPU time
of one run compares with another.  While the benchmark runs, a ``Probe``
thread times ``LOOP_ITERATIONS`` of a fixed loop every ``INTERVAL_S``
(about 1% of one core).  An operation's CPU time is then scaled by
``REFERENCE_S`` over the median loop time of the samples taken during it,
or within ``WINDOW_S`` of it: the benchmark's times read as CPU seconds on a
host where the loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

LOOP_ITERATIONS = 4000
# The loop's time on the host above when it ran fast; only the scale of the
# reported times depends on it.
REFERENCE_S = 0.5e-3
INTERVAL_S = 0.05
WINDOW_S = 0.25


def _loop() -> float:
    x = 0.0
    for i in range(LOOP_ITERATIONS):
        x += (i * 0.5) % 3.0
    return x


class Probe:
    """Loop times, as ``(when, seconds)``, sampled from start() to stop()."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.cpu_s = 0.0  # CPU seconds the loop has used, to leave out of other timings
        self._stopped = threading.Event()
        self._thread = threading.Thread(target=self._run, name="host-probe", daemon=True)

    def _run(self) -> None:
        while True:
            when = time.perf_counter()
            start = time.thread_time()
            _loop()
            seconds = time.thread_time() - start
            self.samples.append((when, seconds))
            self.cpu_s += seconds
            if self._stopped.wait(INTERVAL_S):
                return

    def start(self) -> None:
        self._thread.start()

    def stop(self) -> None:
        self._stopped.set()
        self._thread.join()

    def scale(self) -> float:
        """REFERENCE_S over the median loop time of every sample so far."""
        return REFERENCE_S / statistics.median(s for _, s in list(self.samples))


def scale_at(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """REFERENCE_S over the median loop time of the samples near [start, end].

    ``samples`` is sorted by time.  Samples from WINDOW_S before ``start`` to
    WINDOW_S after ``end`` count; failing any, the nearest one.
    """
    times = [t for t, _ in samples]
    lo = bisect.bisect_left(times, start - WINDOW_S)
    hi = bisect.bisect_right(times, end + WINDOW_S)
    if lo == hi:
        lo, hi = max(0, lo - 1), min(len(samples), hi + 1)
    return REFERENCE_S / statistics.median(s for _, s in samples[lo:hi])
