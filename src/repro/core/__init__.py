"""Public simulation API.

The typical entry point is :func:`repro.core.simulator.simulate`:

>>> from repro.core import simulate
>>> result = simulate(workload="2_MIX", engine="stream",
...                   policy="ICOUNT.1.16", cycles=20_000)
>>> result.ipc, result.ipfc        # doctest: +SKIP

``SimConfig`` carries every Table 3 parameter; ``WORKLOADS`` reproduces
Table 2; ``SimResult`` bundles the fetch/commit metrics the paper's
figures plot.
"""

from repro.core.config import SimConfig
from repro.core.metrics import SimResult
from repro.core.simulator import Simulator, simulate
from repro.core.workloads import WORKLOADS, resolve_workload, \
    workload_benchmarks

__all__ = [
    "SimConfig",
    "SimResult",
    "Simulator",
    "WORKLOADS",
    "resolve_workload",
    "simulate",
    "workload_benchmarks",
]
