"""A fixed reference kernel that reads the host's current speed.

The benchmark's reference host is a shared 2-core virtual machine on
which pure Python runs up to 2x faster or slower for seconds at a time
and drifts by a quarter over minutes: this kernel took 21-80 ms a call
within two minutes, with medians of 23 ms or 41 ms in different
processes.  Raw host seconds from runs minutes apart therefore spread
wider than any bound a gated metric may have.  A run calls this kernel
between its units of work, just before each one, and reports its
median times *scaled* to the kernel's nominal speed::

    scaled_s = measured_s * (NOMINAL_S / kernel_s) ** ELASTICITY

where ``kernel_s`` is the run's median kernel time.  The simulator
feels the host's phases less than this small kernel does: regressing
log cell time on log kernel time gave slopes of 0.3 to 0.8 over three
traces of grid cells on the reference host.  Over ten runs of each
workload, scaling by an elasticity of 0.5 cut the spread (quartile
distance over median) of ``wall_s`` from 0.29 to 0.08 on
``mem-steady``, from 0.14 to 0.05 on ``ilp-steady`` and from 0.14 to
0.11 on ``claims-regen``; an elasticity of 1 over-corrects (0.18,
0.24, 0.26).  This is a covariate adjustment with a fixed
coefficient, the same on every commit; the kernel is the benchmark's
own code, so no change to the program moves it, and a simulator that
gets 10% faster reads 10% faster in scaled seconds too.  Reports keep
the raw figures beside the scaled ones.

The kernel exercises what the simulator's cycle loop spends its time
on: integer arithmetic, list and deque updates, dict counters and
attribute access on slotted objects (a 4-way LRU set-associative tag
store fed by a 64-bit LCG address stream).
"""

from __future__ import annotations

import collections
import time

ITERATIONS = 40_000
NOMINAL_S = 0.030
"""The kernel's typical call time on the reference host, so that scaled
seconds read close to that host's wall seconds."""
ELASTICITY = 0.5
"""How much of the kernel's speed change is carried over to the timed
work (see above)."""
HITS = 2515
"""The kernel's result; a different one means the kernel changed and
``NOMINAL_S`` no longer holds."""
MASK64 = (1 << 64) - 1


class _Way:
    __slots__ = ("tag", "hits")

    def __init__(self) -> None:
        self.tag = -1
        self.hits = 0


def kernel(iterations: int = ITERATIONS) -> int:
    ways = [[_Way() for _ in range(4)] for _ in range(256)]
    counts: dict[int, int] = {}
    recent: collections.deque = collections.deque(maxlen=32)
    x, hits = 12345, 0
    for _ in range(iterations):
        x = (x * 6364136223846793005 + 1442695040888963407) & MASK64
        line = (x >> 39) & 0x3FFF
        row = ways[line & 255]
        tag = line >> 8
        for way in row:
            if way.tag == tag:
                way.hits += 1
                hits += 1
                break
        else:
            victim = row.pop(0)
            victim.tag = tag
            victim.hits = 0
            row.append(victim)
        recent.append(line)
        counts[line & 1023] = counts.get(line & 1023, 0) + 1
    return hits


def timed() -> float:
    """Seconds of one kernel call, now."""
    t0 = time.perf_counter()
    hits = kernel()
    seconds = time.perf_counter() - t0
    if hits != HITS:
        raise RuntimeError(f"reference kernel returned {hits}, not {HITS}")
    return seconds


def scaled(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured next to a ``kernel_s`` kernel call, at the
    kernel's nominal speed."""
    return seconds * (NOMINAL_S / kernel_s) ** ELASTICITY
