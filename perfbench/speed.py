"""Time operations in units of a fixed reference computation.

On the virtual machines this benchmark runs on, the speed of a core swings
by up to 1.7x over a few seconds while nothing in the process changes
(a verification measured 62 ms in one four-second window and 107 ms in
another, with CPU time equal to wall time).  Raw wall times then spread
by some 20 % between runs.  The reference probe below is pure Python
arithmetic of the kind the program does (``Fraction`` products, integer
recurrences, dictionary updates); it is timed just before every operation
and, by an interval timer, every ``INTERVAL`` seconds during it.  An
operation's scaled time is its wall time, minus the probes inside it,
times ``REFERENCE_PROBE_S`` over the mean probe time it saw: the time it
would have taken with the probe at its reference duration.  The ratio of
operation to probe stayed within about 8 % across those windows.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.1
# A typical probe duration on a 2-vCPU VM with Python 3.11 (2.5 to 4 ms
# were seen).  A constant, so scaled times are comparable between commits.
REFERENCE_PROBE_S = 0.003


def probe_work():
    acc, x = Fraction(0), 1
    for k in range(1, 300):
        acc += Fraction(k, k + 1) * Fraction(x % 97 + 1, 3)
        x = (x * 1103515245 + 12345) % 2**31
    table = {}
    for k in range(2000):
        key = (k * 7) % 1009
        table[key] = table.get(key, 0) + k
    return acc, table


class SpeedMeter:
    """Probe samples as (start, seconds).  Inside ``with meter:`` an
    interval timer adds one every INTERVAL seconds; outside it, probes are
    taken only between operations."""

    def __init__(self):
        self.samples: list = []
        self.probe_total = 0.0
        self._old = None
        self._busy = False

    def probe(self, *_):
        if self._busy:  # the timer fired during an explicit probe
            return
        self._busy = True
        t0 = time.perf_counter()
        probe_work()
        dt = time.perf_counter() - t0
        self.samples.append((t0, dt))
        self.probe_total += dt
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def factor(self, since: int = 0) -> float:
        """REFERENCE_PROBE_S over the mean of the probes from index since."""
        seen = [dt for _, dt in self.samples[since:]]
        return REFERENCE_PROBE_S * len(seen) / sum(seen)

    def timed(self, fn, *args):
        """Run fn(*args) after a probe; (result, wall seconds, scaled seconds)."""
        self.probe()
        first = len(self.samples) - 1
        before = self.probe_total
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0 - (self.probe_total - before)
        return out, wall, wall * self.factor(first)
