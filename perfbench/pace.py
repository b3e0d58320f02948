"""Host-speed reference for the timings of one child interpreter.

The reference machine is a shared virtual CPU whose speed drifts by up to 2x
over seconds to minutes; CPU time drifts with wall time, and the two CPUs
drift apart, so neither longer runs nor a reference timed in another process
steadies a timing.  A fixed unit of stdlib work timed in the same thread,
close in time to the program's own work, does follow it: over 5 to 40 s
windows the ratio of a spincas call to that unit spread 0.01-0.04 while the
call alone spread 0.12-0.20.

``Pacer`` runs the unit from a SIGALRM handler every ``INTERVAL_S`` of a
timed call, so the call is sampled in its own thread wherever it runs.  The
handler's time is taken out of the call's time (``paused_s``), and
``factor`` is the mean host speed over the samples relative to
``NOMINAL_UNIT_S``; a time multiplied by it is the time at nominal speed.
Interval timers are not inherited across fork, so a child process the
program might start is not sampled.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

UNIT_TERMS = 800
NOMINAL_UNIT_S = 0.0025  # one unit on the reference machine at its usual speed
INTERVAL_S = 0.1
SETUP_UNITS = 5


def unit() -> Fraction:
    """Fixed work of the kind the program does: Fraction sums in the interpreter."""
    total = Fraction(0)
    for i in range(1, UNIT_TERMS):
        total += Fraction(i % 97, i % 89 + 1)
    return total


def timed_unit() -> float:
    start = perf_counter()
    unit()
    return perf_counter() - start


def speed_factor(samples) -> float:
    """Mean host speed over the samples, relative to nominal speed."""
    return statistics.fmean(NOMINAL_UNIT_S / s for s in samples)


class Pacer:
    """Samples the host speed during a timed call from a timer signal."""

    def __init__(self):
        self.samples: list[float] = []
        self.pauses: list[tuple[float, float]] = []  # handler intervals, in order

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(timed_unit())
        self.pauses.append((start, perf_counter()))

    def start(self) -> None:
        """One sample before the call, so a call shorter than the interval has two."""
        self.samples.append(timed_unit())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(timed_unit())

    def paused_s(self, before: float) -> float:
        return sum(end - start for start, end in self.pauses if end <= before)

    @property
    def factor(self) -> float:
        return speed_factor(self.samples)
