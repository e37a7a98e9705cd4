"""Host-speed calibration for timings taken on a shared machine.

Other tenants on the same cores slow every instruction of this process.
On the 2-CPU host the benchmark was built on, the speed flips between two
levels about 1.7x apart, often within a second, and a 20-second run read
272k and 497k items/s minutes apart with no change in the code.  So the
benchmark also times a fixed unit of interpreter work (integer and dict
operations and random reads of a large list, like the sketch's own loops)
between its timed operations, at most every ``INTERVAL`` seconds, and
reports each timing as it would read on a *reference host*: one that runs
the unit in ``REFERENCE_SECONDS``.  A code change moves the measured
operation and not the unit, so it still shows in full.  The raw timings
are printed beside the scaled ones.

Each timed piece is judged by the ``NEIGHBOURS`` units on each side of it,
not by units seconds away: those may have run at the other speed.  A
timing made of many pieces (a session's time to answer: every ingest call,
the push, the answer) is the sum of its pieces, each scaled on its own.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

__all__ = ["HostSpeed", "REFERENCE_SECONDS"]

#: the unit's time on the reference host (about this machine's unloaded speed)
REFERENCE_SECONDS = 0.002
#: the least time between two calibration units
INTERVAL = 0.05
#: calibration units on each side of a timing that judge the host's speed
NEIGHBOURS = 2
#: loop steps in one unit
UNIT_STEPS = 8000
#: a list about the size of the element filter's wider level, read at random
#: so the unit misses cache the way the sketch's counter arrays do
_COUNTERS = [0] * (1 << 18)


def _unit() -> int:
    table: Dict[int, int] = {}
    counters = _COUNTERS
    key = 1
    for _ in range(UNIT_STEPS):
        key = (key * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        slot = key % 4093
        table[slot] = table.get(slot, 0) + counters[(key >> 40) & 0x3FFFF]
    return len(table)


class HostSpeed:
    """Calibration units timed beside the measurements of one run."""

    def __init__(self) -> None:
        self.units: List[float] = []
        #: seconds spent in calibration, to take out of composite timings
        self.spent = 0.0
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Time one unit if the last one is older than ``INTERVAL``, or
        always when ``force`` is set.

        The unit is timed in this thread's processor time, so it measures
        how fast the host runs this process and not how often the shard
        workers or the server thread take the processor from it.
        """
        began = time.perf_counter()
        if not force and began - self._last < INTERVAL:
            return
        cpu = time.thread_time()
        _unit()
        self.units.append(time.thread_time() - cpu)
        self._last = time.perf_counter()
        self.spent += self._last - began

    def last(self) -> int:
        """The index of the latest unit, ticking one first if it is due."""
        self.tick()
        return len(self.units) - 1

    def factor(self, last: int) -> float:
        """How much slower than the reference host the host ran for a piece
        timed right after unit ``last``.

        The median of the ``NEIGHBOURS`` units on each side of the piece;
        with two on each side, one unit cut by an interrupt does not move
        it.  Units that do not exist yet are left out.
        """
        if not self.units:
            self.tick(force=True)
        window = self.units[max(0, last + 1 - NEIGHBOURS) : last + 1 + NEIGHBOURS]
        if not window:
            window = self.units[-NEIGHBOURS:]
        return statistics.median(window) / REFERENCE_SECONDS
