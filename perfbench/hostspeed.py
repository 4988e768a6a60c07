"""Host speed, sampled while a workload runs, for steadier timings.

On a shared host the CPU itself slows down when neighbours are busy:
wall and CPU time of the same work varied by up to 1.9x between
repetitions on a shared 2-CPU Xeon host.  `HostSpeed` runs a fixed
reference computation on a timer signal (SIGALRM every SAMPLE_EVERY_S
seconds) in the measured process, between the workload's own
bytecodes.  The reference is a sparse product with `Fraction`
coefficients, written with the standard library only, so a change to
polymap cannot change it; it does the same dict, tuple and `Fraction`
work as polymap's inner loops, so it slows down with them.

A sample's ratio is REFERENCE_CHUNK_S / (its chunk time): the host's
speed relative to a reference host on which one chunk takes
REFERENCE_CHUNK_S, about that Xeon host when it is quiet.  A time
multiplied by the mean ratio of the samples taken while it ran is that
time at the reference speed.  The time spent sampling is kept in
`spent`, so that callers can take it out of their own measurements.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_CHUNK_S = 0.0028
SAMPLE_EVERY_S = 0.1
LOCAL_WINDOW_S = 0.5      # samples this close to a span describe its speed
BURST = 5                 # samples taken at once by `burst`

_A = {(i, j): Fraction(7 * i + 3, j + 2) for i in range(6) for j in range(6)}
_B = {(i, j): Fraction(5 * j - 4, i + 3) for i in range(5) for j in range(5)}


def reference_chunk() -> dict:
    """A fixed sparse polynomial product over Q, in the standard library only."""
    out = {}
    for (a0, a1), ca in _A.items():
        for (b0, b1), cb in _B.items():
            e = (a0 + b0, a1 + b1)
            c = ca * cb
            prior = out.get(e)
            out[e] = c if prior is None else prior + c
    return out


class HostSpeed:
    """Samples the reference computation, on a timer while a block runs."""

    def __init__(self):
        self.spent = 0.0
        self.times = []       # perf_counter at each sample, increasing
        self.ratios = []

    def sample(self, *_):
        t = time.perf_counter()
        reference_chunk()
        end = time.perf_counter()
        self.spent += end - t
        self.times.append(end)
        self.ratios.append(REFERENCE_CHUNK_S / (end - t))

    def burst(self) -> float:
        """Mean ratio of BURST samples taken now."""
        for _ in range(BURST):
            self.sample()
        return sum(self.ratios[-BURST:]) / BURST

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def factor(self, start=None, end=None) -> float:
        """Mean ratio of the samples within LOCAL_WINDOW_S of [start, end].

        Without bounds, or with no sample near the span, all samples count.
        """
        if not self.ratios:
            self.burst()
        if start is not None:
            lo = bisect.bisect_left(self.times, start - LOCAL_WINDOW_S)
            hi = bisect.bisect_right(self.times, end + LOCAL_WINDOW_S)
            if hi > lo:
                return sum(self.ratios[lo:hi]) / (hi - lo)
        return sum(self.ratios) / len(self.ratios)
