"""Host-speed probe that rescales measured times to a fixed reference speed.

On a shared host each vCPU switches, every second or so, between full speed and
contended states in which Python runs up to about 1.7 times slower (other
tenants on the same physical core). A sweep of several seconds therefore takes
about ``T0 * (1 + 0.7 * f)``, where ``f``, the contended share of its run,
drifts over minutes; raw wall times of the same code spread by 20-30 % between
runs. The two vCPUs switch independently, so the probe must share the
children's CPU.

``SpeedProbe`` pins the benchmark's main thread, and so every child it starts,
to one CPU, and runs a probe thread on that CPU. Every 50 ms the probe times a
fixed Fraction and integer loop (about 0.5 ms, 1 % of the CPU), the same kind
of interpreter work as the sweeps. ``factors`` turns a timed window into the
mean of ``REF_PROBE_S / d`` over the probes that ended inside it, where ``d`` is
a probe's duration. A window's time multiplied by its factor is the time it
would have taken with the probe loop running in ``REF_PROBE_S``; a change to
the program moves it as much as it moves the raw time.

The reference is a constant, not a statistic of the run: a low percentile of
the run's own probes drifts with the host's load (it lands inside the
contended states when the fast state is rare), and moved rescaled times by
8 %, where the constant kept them within 2 %.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.05
# Uncontended time of _probe_loop on a 2-vCPU KVM guest of an Intel Xeon host
# (the 1st percentile of its probes was 463-527 us under load). On other
# hardware rescaled times are in that guest's seconds.
REF_PROBE_S = 480e-6


def _probe_loop() -> int:
    x, s = Fraction(1, 3), 0
    for i in range(1, 150):
        x = x * Fraction(i % 97 + 1, i % 89 + 2) + 1 if i % 50 else Fraction(1, 3)
        s += i * i % 1009
    return s


class SpeedProbe:
    """Pin to one CPU and sample its speed until the ``with`` block ends."""

    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe")
        self._mask = os.sched_getaffinity(0)

    def __enter__(self) -> "SpeedProbe":
        # Applies to the calling thread; the probe thread and every child
        # started from this thread inherit it.
        os.sched_setaffinity(0, {min(self._mask)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._mask)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            start = clock()
            _probe_loop()
            end = clock()
            self.ends.append(end)
            self.durations.append(end - start)

    def factors(self, windows: list[tuple[float, float]]) -> list[float]:
        """Speed factor of each ``(start, end)`` window of ``time.perf_counter``
        (1.0 when the run has no probes)."""
        if not self.durations:
            return [1.0] * len(windows)
        out = []
        for start, end in windows:
            lo = bisect.bisect_left(self.ends, start)
            hi = bisect.bisect_right(self.ends, end)
            if hi == lo:  # shorter than a period: the probes either side
                lo, hi = max(lo - 1, 0), min(lo + 1, len(self.ends))
            out.append(statistics.fmean(REF_PROBE_S / d for d in self.durations[lo:hi]))
        return out
