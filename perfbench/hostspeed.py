"""Correction of measured times for the speed of a shared host.

The speed at which a shared host runs Python drifts by 20% and more,
within seconds and between minutes, which swamps the differences the
benchmark is meant to show. So the benchmark times a fixed reference loop,
which uses nothing from the program, alongside everything it measures and
scales each measured time by REFERENCE_NOMINAL_S over the reference time
seen meanwhile. Reported times are thus seconds on a host where the loop
takes REFERENCE_NOMINAL_S. Raw times are reported next to them.
"""

from __future__ import annotations

import signal
import statistics
import time

perf = time.perf_counter

REFERENCE_N = 16_000
REFERENCE_NOMINAL_S = 0.004
SAMPLE_EVERY_S = 0.1


def reference_loop() -> float:
    """Seconds one run of the reference loop takes (about 4 ms)."""
    table = dict.fromkeys(range(1024), 0)
    acc = 0
    t0 = perf()
    for i in range(REFERENCE_N):
        k = i & 1023
        acc += table[k]
        table[k] = (acc ^ i) & 7
    return perf() - t0


def reference_s() -> float:
    """Median of five runs of the reference loop."""
    return statistics.median(reference_loop() for _ in range(5))


def scale(reference_times) -> float:
    """Factor that turns raw seconds into nominal-host seconds."""
    return REFERENCE_NOMINAL_S * len(reference_times) / sum(reference_times)


class HostSpeed:
    """Reference-loop samples taken every SAMPLE_EVERY_S from a SIGALRM
    timer while active, so that the loop interleaves with the measured
    code. The time spent sampling is taken out of measured intervals.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0

    def _sample(self, signum=None, frame=None):
        t0 = perf()
        self.samples.append(reference_loop())
        self.stolen += perf() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return perf(), self.stolen, len(self.samples)

    def raw_since(self, mark) -> float:
        """Seconds since mark, sampling time taken out."""
        return perf() - mark[0] - (self.stolen - mark[1])

    def scale_since(self, mark) -> float:
        """scale() of the samples taken since mark, or of the latest one
        if none was taken since."""
        return scale(self.samples[mark[2]:] or self.samples[-1:])
