"""The machine's speed while a span runs, from a fixed pure-Python loop.

On a shared machine the speed of one core drifts by up to 2x over seconds
to minutes, and CPU time drifts with wall time, so a raw timing says as
much about the neighbours as about the program.  A `Speedometer` runs
`reference_loop` when it starts, every INTERVAL_S of wall time from a
SIGALRM handler, and when it stops.  A span measured under it is rescaled
to the speed at which one loop takes REF_S seconds:

    rescaled = (measured - loop time inside the span) * REF_S / mean(loop times)

Loops sample the speed uniformly in time, so the mean loop time is the
span's mean slowdown.  The loop does exact rational arithmetic in the
interpreter, the same kind of work as hopfcheck's exact layers.  REF_S is
the loop's fastest wall time on the shared 2-core machine where the
benchmark was defined (Python 3.11.7).
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

REF_S = 0.0039
ITERATIONS = 900
INTERVAL_S = 0.2


def reference_loop() -> tuple:
    """(wall seconds, CPU seconds) of one fixed run of exact arithmetic."""
    w0, c0 = perf_counter(), process_time()
    acc = Fraction(0)
    for i in range(1, ITERATIONS):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13, 7)
    return perf_counter() - w0, process_time() - c0


class Speedometer:
    """Samples the reference loop over a span; the main thread only."""

    def __init__(self):
        self.samples = []          # (wall, cpu) per loop
        self.spent = [0.0, 0.0]    # wall and CPU seconds spent in loops
        self._previous = None

    def _sample(self, *_signal_args) -> None:
        wall, cpu = reference_loop()
        self.samples.append((wall, cpu))
        self.spent[0] += wall
        self.spent[1] += cpu

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def rescale(self, wall: float, cpu: float) -> tuple:
        """Rescale wall and CPU seconds that exclude the loops' own time."""
        mean_wall = statistics.fmean(s[0] for s in self.samples)
        mean_cpu = statistics.fmean(s[1] for s in self.samples)
        return wall * REF_S / mean_wall, cpu * REF_S / mean_cpu
