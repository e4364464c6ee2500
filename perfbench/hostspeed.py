"""The host's speed, measured by a fixed pure-Python kernel between units.

A shared host's speed swings by half within a minute, in CPU time as well as
wall time, and one run of the benchmark is too short to average the swings
out.  So the timed pass runs a fixed kernel before every unit and scales
each measured CPU time by ``REFERENCE_S`` over the kernel's recent median
CPU time, which takes out most of the swings.  The kernel is random lookups
in a table of small objects a few MB large.  The unit before it evicts most
of the table from the caches, so the kernel waits on memory as the
simulator does, and its time follows the simulator's through the host's
slow spells; a kernel that stays in the caches slows down by a different
factor.  Nothing of the program runs in the kernel.  A program change moves it only by changing how much of the
table the caches still hold after a unit, which needs a working set of the
program far below the few MB every workload already touches.
"""

from __future__ import annotations

import collections
import random
import statistics
import time

#: The kernel's median CPU seconds between app-loop units on a 2-vCPU KVM
#: guest (Xeon at 2.1 GHz, Python 3.11.7).  How cold the table is after a
#: unit differs by workload, so scaled times compare between runs of one
#: workload, not between workloads.
REFERENCE_S = 1.9e-3
#: Kernel samples the scale is the median of: recent enough to follow a
#: swing, many enough that one interrupted sample does not move it.
WINDOW = 9
TABLE_SIZE = 20_000
LOOKUPS = 3_000


class HostSpeed:
    """Scale factors from the kernel's recent CPU times."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._table = {i: [i, str(i), (i, i + 1)] for i in range(TABLE_SIZE)}
        self._keys = [rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS)]
        self._samples: collections.deque = collections.deque(maxlen=WINDOW)
        #: Every kernel sample of the run (seconds), for the result document.
        self.history: list[float] = []

    def kernel(self) -> int:
        total = 0
        table = self._table
        for key in self._keys:
            row = table[key]
            total += row[0] + len(row[1]) + row[2][1]
        return total

    def sample(self) -> float:
        """Run the kernel once; returns the scale for the work that follows."""
        started = time.process_time()
        self.kernel()
        elapsed = time.process_time() - started
        self._samples.append(elapsed)
        self.history.append(elapsed)
        return scale(self._samples)


def scale(samples) -> float:
    """The factor that takes CPU times measured beside ``samples`` to the reference speed."""
    return REFERENCE_S / statistics.median(samples)
