"""A clock that reads in seconds at a fixed reference speed of the host.

On a shared 2-vCPU VM each vCPU flips between a fast and a slow state
(about 1.5x slower) every few tenths of a second, and the share of slow
time drifts over minutes.  A program timed with a wall clock reads
whatever share of slow time its run happened to draw: two sets of ten
runs of the same code, half an hour apart, had medians 18-31% apart
and quartile spreads up to 39% on the wall clock.

:class:`SpeedClock` measures the host's speed while the program runs.
A ``SIGALRM`` interval timer interrupts the program every ``period``
seconds; the handler runs a fixed kernel of about 0.3 ms twice and
times the second run (the tick).  Until the next tick the clock
advances at ``REFERENCE_KERNEL_S / kernel time`` seconds per second.
Tick time is excluded, so the clock reads the program's time only, in
seconds at the speed where the kernel takes ``REFERENCE_KERNEL_S``.

The first, untimed run refills the caches and allocator free lists the
kernel uses, which the program evicted or used since the last tick, so
the timed run reads the host's speed rather than the program's memory
behaviour.  ``clockcheck.py`` checks this: work added to a program, be
it compute-bound or memory-bound, raises the clocked time by that
work's own clocked time.  The handler runs between bytecodes, so a long
C call delays the next tick and is scaled by the speed measured before
it.
"""

from __future__ import annotations

import functools
import signal
import time
from typing import Callable, Optional

import numpy as np

#: Iterations of the tick kernel's integer loop and tuple set; length
#: of its vector.
KERNEL_LOOP = 2000
KERNEL_TUPLES = 600
KERNEL_VECTOR = 60_000
#: The clock's unit: a clocked second is a second at the speed where the
#: kernel takes this long.  A constant, so that readings of two commits
#: compare directly.
REFERENCE_KERNEL_S = 0.0003
#: Seconds between ticks.
PERIOD_S = 0.025


def kernel(vector: np.ndarray) -> int:
    """The tick kernel: an integer loop, a set of fresh tuples, and
    in-place additions to ``vector``, so that it slows with the host as
    interpreted code, allocation and numpy do."""
    acc = 0
    for i in range(KERNEL_LOOP):
        acc = (acc * 31 + i) % 1_000_003
    acc += len({(i, i + 1) for i in range(KERNEL_TUPLES)})
    for _ in range(4):
        np.add(vector, 1.0, out=vector)
    return acc


class SpeedClock:
    """Clocked time of the code run between :meth:`start` and :meth:`stop`.

    :meth:`now` reads the clocked seconds since :meth:`start`.  Only one
    clock may run at a time: it owns ``SIGALRM``.
    """

    def __init__(
        self,
        period: float = PERIOD_S,
        reference: float = REFERENCE_KERNEL_S,
        probe: Optional[Callable[[], object]] = None,
    ) -> None:
        self.period = period
        self.reference = reference
        self.probe = probe or functools.partial(kernel, np.ones(KERNEL_VECTOR))
        self.running = False
        #: Raw and clocked seconds up to the last tick, and ticks taken.
        self.raw = 0.0
        self.scaled = 0.0
        self.ticks = 0
        self._last = 0.0
        self._rate = 1.0
        self._ticking = False

    def _measure(self) -> None:
        self.probe()  # refill what the program evicted; untimed
        start = time.perf_counter()
        self.probe()
        self._rate = self.reference / (time.perf_counter() - start)
        self._last = time.perf_counter()

    def _advance(self) -> None:
        elapsed = time.perf_counter() - self._last
        self.raw += elapsed
        self.scaled += elapsed * self._rate

    def _tick(self, signum: int, frame: object) -> None:
        # A tick delivered after stop(), or while a tick that outlasted
        # the period still runs, is dropped: the latter would count
        # tick time as program time.
        if not self.running or self._ticking:
            return
        self._ticking = True
        try:
            self._advance()
            self.ticks += 1
            self._measure()
        finally:
            self._ticking = False

    def start(self, since: Optional[float] = None) -> None:
        """Reset to zero and start the clock and its timer.  With
        ``since``, an earlier ``time.perf_counter()`` reading, the time
        from then to now counts too, at the speed measured now."""
        self.raw = self.scaled = 0.0
        self.ticks = 0
        signal.signal(signal.SIGALRM, self._tick)
        self.running = True
        begun = time.perf_counter()
        self._measure()
        if since is not None:
            self.raw = begun - since
            self.scaled = self.raw * self._rate
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def now(self) -> float:
        """Clocked seconds since :meth:`start` (frozen after :meth:`stop`)."""
        while True:
            ticks = self.ticks
            if not self.running:
                return self.scaled
            now = self.scaled + (time.perf_counter() - self._last) * self._rate
            if ticks == self.ticks:  # no tick landed while reading
                return now

    def stop(self) -> float:
        """Stop the timer and the clock; return the clocked seconds.  The
        handler stays installed, so a tick already in flight is ignored
        rather than killing the process."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.running = False
        self._advance()
        return self.scaled
