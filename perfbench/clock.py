"""Wall-clock timings scaled to a reference core speed.

The benchmark runs on small shared VMs whose cores do not keep one
speed: on a 2-vCPU Intel Xeon VM a core ran about 1.5x slower whenever
its hardware sibling was busy, in stretches from milliseconds to
minutes, so one sweep's wall-clock moved by up to 50% on the same input.
A second core sees none of this (its sibling is another), so the speed
has to be sampled on the timed core itself, while the block runs.

While a :meth:`CoreClock.timed` block runs, ``SIGALRM`` fires every
``INTERVAL_S`` and its handler times :func:`tick`, a fixed piece of the
two kinds of work a sweep is made of (interpreted Python and small NumPy
calls).  A tick's speed relative to ``REFERENCE_TICK_S`` is the core's
speed at that instant, so the block's *scaled* time is::

    (wall-clock - time in the handler) * mean(REFERENCE_TICK_S / tick)

the seconds the block would take on a core that always ran at the
reference speed.  The handler takes about 1% of the block; its own time
is taken out.  Nothing here touches the program's state or random
streams, so the outputs are those of an untimed call.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

#: Seconds between two speed samples.
INTERVAL_S = 0.01
#: A tick's time on an unloaded core of a 2-vCPU Intel Xeon VM (CPython
#: 3.11, NumPy 2): the speed every scaled time is expressed at.
REFERENCE_TICK_S = 60e-6

_SMALL = np.linspace(0.0, 1.0, 16)


def tick() -> float:
    """Seconds to run a fixed mix of interpreted and small-array work."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(300):
        x += i * 0.5
    for _ in range(20):
        np.minimum(_SMALL, 0.5) + _SMALL
    return time.perf_counter() - t0


@dataclass
class Timing:
    wall_s: float = 0.0     # wall-clock of the block, handler included
    speed: float = 1.0      # mean core speed over the block (reference = 1)
    seconds: float = 0.0    # the block's time at the reference speed


class CoreClock:
    """Times blocks and scales them to the reference core speed.
    Blocks may nest; the sampling runs while any block is open."""

    def __init__(self):
        self._ticks: list[float] = []
        self._open = 0

    def _on_alarm(self, signum, frame) -> None:
        self._ticks.append(tick())

    @contextmanager
    def timed(self):
        timing = Timing()
        if not self._open:
            self._ticks.clear()
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._open += 1
        first = len(self._ticks)
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall_s = time.perf_counter() - t0
            self._open -= 1
            if not self._open:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            ticks = self._ticks[first:]
            busy = sum(ticks)
            # A block shorter than the interval still gets one sample.
            ticks = ticks or [tick()]
            timing.speed = statistics.fmean(REFERENCE_TICK_S / t for t in ticks)
            timing.seconds = (timing.wall_s - busy) * timing.speed
