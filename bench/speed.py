"""Machine speed sampled inside a pass, so its time can be read in
reference units.

On a shared machine the speed of one fixed pure-Python loop can drift
by a third over tens of seconds, in plateaus longer than a pass (seen
on a 2-vCPU Intel Xeon virtual machine at 2.1 GHz).  Wall time then
measures the neighbours as much as mvb.  ``SpeedProbe`` interrupts the pass every ``PERIOD_S``
seconds of wall time (SIGALRM) and times ``reference_loop`` in the same
process, on the same processor, at that moment.  A pass's own work
(its wall time minus the probes) times the mean probe speed is its cost
in reference loops: a slower or busier machine stretches both alike.
The probes take under one percent of the pass.
"""

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.1


def reference_loop():
    """About half a millisecond of the operations mvb spends its time on.

    Integer arithmetic alone slows less than mvb when the machine is
    busy, and dict and Fraction work slows more.  On the machine above,
    half of each followed the speed of ``mvb decompose`` to within about
    two percent over ten-second windows in which its wall time varied by
    fifteen.
    """
    x = 0
    for i in range(4000):
        x += i * i % 7
    counts = {}
    total = Fraction(0)
    step = Fraction(1, 3)
    for i in range(400):
        key = (i & 31, i & 3)
        counts[key] = counts.get(key, 0) + 1
        if not i & 7:
            total += Fraction(i, 7) * step
    return x, total


class SpeedProbe:
    """Context manager timing ``reference_loop`` every ``PERIOD_S`` seconds."""

    def __init__(self):
        self.probes = []  # (perf_counter at start, duration in s)
        self._previous = None

    def probe(self, signum=None, frame=None):
        started = time.perf_counter()
        reference_loop()
        self.probes.append((started, time.perf_counter() - started))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()  # a pass shorter than PERIOD_S still gets a sample

    def probe_seconds(self, start, end):
        """Time spent probing between two perf_counter readings."""
        return sum(d for t, d in self.probes if start <= t < end)

    def speed(self):
        """Mean reference loops per second: the mean of the probes' speeds,
        which weighs every moment of the pass alike and makes little of a
        probe stretched by an interrupt."""
        return statistics.mean(1.0 / d for _, d in self.probes)

    def kref(self, work_s):
        """``work_s`` in thousands of reference loops at the pass's speed."""
        return work_s * self.speed() / 1000.0
