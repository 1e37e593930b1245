"""A speed gauge for a shared host.

On a machine shared with other tenants the same pure-Python code runs up to
half again as long for minutes at a time, and this process is not
descheduled meanwhile (its CPU time grows with its wall time), so neither
taking the fastest pass nor timing CPU instead of wall time removes the
drift.  The gauge runs a fixed unit of reference work interleaved with the
program: from a SIGALRM timer every INTERVAL_S while the program runs, and
explicitly between measurements.  A time measured alongside the gauge is
then reported at the reference speed, where one unit takes UNIT_REF_S:

    normalised = measured * UNIT_REF_S / (mean time of a unit meanwhile)

The reference work is benchmark code, the same on every commit, so a change
to the program moves the normalised time as it moves the measured one.
"""

from __future__ import annotations

import contextlib
import signal
from time import perf_counter

INTERVAL_S = 0.02
UNIT_REF_S = 5e-4


def reference_unit() -> int:
    """Fixed work in the program's idiom: small-integer gcds, tuple-keyed
    dictionary updates, a sort of pairs and a set comprehension."""
    d: dict = {}
    for i in range(1, 280):
        a, b = i * 7919, 104729
        while b:
            a, b = b, a % b
        t = (i % 7, i % 11, i % 13)
        d[t] = d.get(t, 0) + a
    xs = sorted(((i * 2654435761) % 1009, i) for i in range(800))
    s = {x * y % 97 for x, y in xs}
    return len(d) + len(s)


class Gauge:
    """Accumulates the time spent in reference units and their number."""

    def __init__(self):
        self.spent = 0.0
        self.units = 0

    def sample(self, n: int) -> None:
        """Run n units now."""
        for _ in range(n):
            t0 = perf_counter()
            reference_unit()
            self.spent += perf_counter() - t0
            self.units += 1

    def _tick(self, signum, frame) -> None:
        self.sample(1)

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def paused(self):
        """The timer off meanwhile, so that no unit competes with a child
        process on the same processor."""
        _, interval = signal.setitimer(signal.ITIMER_REAL, 0, 0)
        try:
            yield
        finally:
            if interval:
                signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def mark(self) -> tuple[float, int]:
        return self.spent, self.units

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """Time spent in units since mark, and the mean time of one of them."""
        spent, units = self.spent - mark[0], self.units - mark[1]
        return spent, spent / units
