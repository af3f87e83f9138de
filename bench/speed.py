"""A reference kernel that tracks how fast the machine runs during a run.

On a shared 2-core virtual machine the same work can take 20% longer for
minutes at a time.  Process time rises with wall time, so the slowdown comes
from the host, not from preemption, and repeating work inside one run does
not average it out.  The benchmark therefore times this kernel between cases
and divides every time in the run by the kernel's slowdown over the run.

Over ten runs per workload on such a machine, the kernel's slowdown ranged
from 1.07 to 1.63 and correlated with the measured `wall_s` at 0.89
(corpus), 0.83 (bipartite) and 0.98 (large).  Dividing by it cut the
coefficient of variation of `wall_s` from 4.7% to 2.2%, 3.7% to 1.9% and
16.1% to 3.7%.  The kernel mixes what the program does: a breadth-first
search over integer bitmasks, tuple and dict building, sorting and JSON
encoding.  It is the benchmark's own code, so no change to the program
moves it.
"""

from __future__ import annotations

import json
import random
import time

# Seconds per unit at the reference speed: the median of 30 batches on a
# 2-core Intel Xeon 2.0 GHz virtual machine, Python 3.11.
NOMINAL_UNIT_S = 0.00009
MIN_UNITS = 20


class Reference:
    def __init__(self) -> None:
        rng = random.Random(1509)
        n = 240
        self.adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.012:
                    self.adj[u] |= 1 << v
                    self.adj[v] |= 1 << u
        self.full = (1 << n) - 1
        self.seconds = 0.0
        self.units = 0

    def _unit(self, k: int) -> int:
        adj = self.adj
        allowed = self.full & ~(1 << (k % 200 + 17)) & ~(1 << (k % 190 + 29))
        seen = frontier = (1 << (k % 240)) & allowed
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & allowed & ~seen
            seen |= frontier
        rows = {i: (i, seen >> i & 1, k) for i in range(0, 240, 6)}
        order = sorted(rows.values(), key=lambda r: (-r[1], r[0]))
        return len(json.dumps(order))

    def sample(self, seconds: float) -> None:
        """Run the kernel for a twentieth of `seconds`, at least MIN_UNITS
        units, so that the samples weight the run's periods by its work."""
        units = max(MIN_UNITS, round(seconds / 20 / NOMINAL_UNIT_S))
        t0 = time.perf_counter()
        for k in range(self.units, self.units + units):
            self._unit(k)
        self.seconds += time.perf_counter() - t0
        self.units += units

    def slowdown(self) -> float:
        """Time per unit so far over the reference time per unit."""
        return self.seconds / self.units / NOMINAL_UNIT_S
