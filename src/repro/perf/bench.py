"""Constants and helpers the repository benchmark (``perfbench/``) shares.

``perfbench/layers.py`` builds its steady-workload grid from the
engines and policies below, and ``perfbench/bench.py`` stamps every
report with :func:`host_metadata`.  The grid deliberately spans both
fetch-unit generations (1.8 and 2.8 policies) and all three engines:
those are the axes the hot path branches on, so a regression in any
specialised path shows in the benchmark.
"""

from __future__ import annotations

import math
import os
import platform

BENCH_ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
BENCH_POLICIES = ("ICOUNT.1.8", "ICOUNT.2.8")


def host_metadata() -> dict:
    """Interpreter and machine facts for benchmark provenance.

    Absolute throughput numbers are meaningless without knowing what
    ran them; this stamp makes every benchmark report say so.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def geomean(values) -> float:
    """Geometric mean (0.0 for an empty sequence)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
