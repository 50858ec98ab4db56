"""A reference clock: wall time rescaled by the speed the process ran at.

The machine this benchmark was written on shares its cores with other
tenants, and a process there runs at one of two speeds that differ by about
1.8x, switching every few seconds or staying for minutes. Wall times of the
same work then spread by 40 % between runs. To report times that depend on
the work and not on the neighbours, a timer interrupts the process every
INTERVAL_S and runs a fixed kernel of exact rational arithmetic (the kind
of work gsvindex does), timing it. Each slice of wall time between two
kernels is scaled by KERNEL_NOMINAL_S / (duration of the kernel that ends
it), and the kernels' own time is left out. The result is in reference
seconds: seconds on a machine that runs the kernel in KERNEL_NOMINAL_S,
which is its duration here at full speed. Python runs signal handlers
between bytecodes of the main thread, so each kernel measures the speed the
measured code was getting at that moment.
"""

import signal
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
KERNEL_NOMINAL_S = 0.0004


def _operand():
    """(x/3 + 2y/5 + 7/11)^3 as a dict of exponent tuples to Fractions."""
    p = {(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 5), (0, 0): Fraction(7, 11)}
    q = {(0, 0): Fraction(1)}
    for _ in range(3):
        q = _mul(q, p)
    return q


def _mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = (ma[0] + mb[0], ma[1] + mb[1])
            out[m] = out.get(m, 0) + ca * cb
    return out


class RefClock:
    """Samples the process's speed while running; maps wall times to reference seconds."""

    def __init__(self):
        self._q = _operand()
        self.starts = []
        self.ends = []
        self.origin = None
        self._cum = None
        self._busy = False

    def start(self):
        self.origin = perf_counter()
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        cum, prev = [], self.origin
        total = 0.0
        for s, e in zip(self.starts, self.ends):
            total += (s - prev) * KERNEL_NOMINAL_S / (e - s)
            cum.append(total)
            prev = e
        self._cum = cum

    def _tick(self, signum=None, frame=None):
        if self._busy:  # a second alarm delivered inside the handler
            return
        self._busy = True
        s = perf_counter()
        _mul(self._q, self._q)
        self.ends.append(perf_counter())
        self.starts.append(s)
        self._busy = False

    def at(self, t):
        """Reference seconds from the start of the clock to wall time t (after stop)."""
        i = bisect_right(self.starts, t)
        if i == 0:
            return (t - self.origin) * self._factor(0)
        if t <= self.ends[i - 1]:
            return self._cum[i - 1]
        return self._cum[i - 1] + (t - self.ends[i - 1]) * self._factor(i)

    def _factor(self, i):
        i = min(i, len(self.starts) - 1)
        return KERNEL_NOMINAL_S / (self.ends[i] - self.starts[i])

    def span(self, t0, t1):
        return self.at(t1) - self.at(t0)
