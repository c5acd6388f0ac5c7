"""The host's speed, sampled all through a timed run, so that times can be
scaled to a fixed reference speed.

A shared host's CPU speed drifts: on a two-vCPU KVM guest the same pure
Python loop took anywhere from 0.43 s to 0.84 s within one minute, and
identical benchmark passes differed by up to 1.4x.  Averaging within a run
cannot remove that drift, so the gated times are scaled: while a run is
timed, an interval timer interrupts the program every ``PERIOD_S`` seconds
and times ``kernel``, a fixed piece of exact rational arithmetic that uses
only the standard library.  Each op's time, less the time the probe took
inside it, is multiplied by ``REFERENCE_S`` over the mean kernel time
sampled within ``WINDOW_S`` of the op.  The result reads in reference
seconds: seconds on a host where the kernel takes ``REFERENCE_S``.

The kernel does not call the program, so a change to the program moves the
scaled times as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.003  # the kernel's typical time on the host the bounds were set on
PERIOD_S = 0.1
WINDOW_S = 1.0
BURST = 3  # samples taken on each pause and resume


def kernel() -> Fraction:
    """About 3 ms of Fraction arithmetic, the program's own kind of work."""
    x = Fraction(1)
    for i in range(1, 400):
        x = x * Fraction(i + 1, i) - Fraction(1, i * i + 1)
    return x


class SpeedProbe:
    """Samples the kernel's time on a SIGALRM timer between ``start`` and
    ``stop``, except while paused, and keeps the total time the samples took
    (``stolen``), so a caller can subtract it from what it timed."""

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.at: list[float] = []  # when each sample started
        self.took: list[float] = []  # the kernel's time in each sample
        self.stolen = 0.0

    def _sample(self, signum, frame) -> None:
        # A collection the kernel's allocations trigger would be charged to
        # the sample and taken out of the program's time; leave it to the
        # program, which it would have hit without the probe.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.stolen += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self.resume()

    def stop(self) -> None:
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def pause(self) -> None:
        """Stop sampling, so that work which starts another process does not
        share the host with samples; a few samples mark the moment."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(BURST):
            self._sample(None, None)

    def resume(self) -> None:
        for _ in range(BURST):
            self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time sampled within WINDOW_S of
        the interval [t0, t1], taking at least the samples just before and
        just after it.  The mean, not the median: an op's time adds up the
        slow and the fast moments of the host in proportion, as the mean
        does."""
        lo = min(bisect.bisect_left(self.at, t0 - WINDOW_S),
                 max(bisect.bisect_left(self.at, t0) - 1, 0))
        hi = max(bisect.bisect_right(self.at, t1 + WINDOW_S),
                 min(bisect.bisect_right(self.at, t1) + 1, len(self.at)))
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
