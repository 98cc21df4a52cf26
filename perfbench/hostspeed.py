"""How fast the host runs right now, from a fixed reference loop.

The loop is stdlib-only Fraction/int arithmetic, the same kind of work as
the program's, and imports nothing of the program.  On a shared host
(measured on a 2-vCPU Intel Xeon VM at 2.1 GHz) the speed of one CPU can
swing by a factor of 1.6 within seconds, so set-up and command times are
adjusted to a reference speed: what took t seconds while the probe took
p seconds is reported as t * PROBE_NOMINAL_S / p, its duration on a host
where the probe takes exactly PROBE_NOMINAL_S.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_ITERATIONS = 3_500
PROBE_NOMINAL_S = 0.010
CALIB_ITERATIONS = 60_000
# while a command runs, the probe also fires this often, so long commands
# are adjusted by the speed they actually ran at
PROBE_INTERVAL_S = 0.5


def reference_loop(iterations: int) -> float:
    """Seconds taken by a fixed Fraction/int loop of the given length."""
    start = time.perf_counter()
    acc, x = Fraction(0), 1
    for i in range(1, iterations):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        x = (x * 1_103_515_245 + 12_345) % 2_147_483_648
    if acc.denominator == 0 or x < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - start


def probe() -> float:
    return reference_loop(PROBE_ITERATIONS)


class AdjustedTimer:
    """Times a call in wall seconds and in reference-speed seconds.

    A probe runs before the first call and after every call; while a call
    runs, a timer signal runs one every PROBE_INTERVAL_S.  A call's speed
    is the mean of the probes around and inside it, and the probes inside
    it are subtracted from its wall time.  Main thread only.
    """

    def __init__(self):
        self._inside: list[float] = []
        self._last = probe()
        self.probes = [self._last]

    def _on_timer(self, signum, frame) -> None:
        self._inside.append(probe())

    def time(self, fn, *args):
        """(result, wall seconds, adjusted seconds) of fn(*args)."""
        self._inside = []
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = probe()
        around = [self._last, *self._inside, after]
        self.probes.extend([*self._inside, after])
        self._last = after
        work = wall - sum(self._inside)
        speed = sum(around) / len(around)
        return result, work, work * PROBE_NOMINAL_S / speed
