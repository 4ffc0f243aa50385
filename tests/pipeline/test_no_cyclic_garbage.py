"""A finished machine is freed by reference counting.

The cycle loop's and the fetch stages' closures are stored on their
owners.  A closure that held its owner strongly would make every
machine a reference cycle, so the core, the fetch unit, the engine,
the memory hierarchy and every in-flight ``DynInst`` would live until
the collector's next full pass.  With the collector off, building,
warming, advancing and exporting a machine and then dropping it must
leave nothing for ``gc.collect()`` to find.
"""

import gc
from contextlib import contextmanager

import pytest

from repro.backend import ReferenceBackend
from repro.campaign.cells import Cell, execute_cell
from repro.core.config import DEFAULT_CONFIG
from repro.core.simulator import Simulator
from repro.core.workloads import resolve_workload
from repro.program import program_for

ENGINES = ("gshare+BTB", "gskew+FTB", "stream")

# A 1-thread workload would clamp a 2.X policy with a UserWarning, so
# it gets the 1.X forms of the same policies.
CASES = [pytest.param(("gzip",), policy, id=f"gzip-{policy}")
         for policy in ("ICOUNT.1.8", "RR.1.8")] \
    + [pytest.param(workload, policy, id=f"{workload}-{policy}")
       for workload in ("2_MEM", "4_ILP")
       for policy in ("ICOUNT.1.8", "ICOUNT.2.8", "RR.2.8")]


@contextmanager
def collector_off(benchmarks):
    """Generate the programs, collect once, then keep the collector off."""
    for name in benchmarks:
        program_for(name, DEFAULT_CONFIG.seed)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("workload,policy", CASES)
@pytest.mark.parametrize("engine", ENGINES)
def test_a_dropped_machine_leaves_no_cyclic_garbage(engine, workload,
                                                     policy):
    benchmarks, name = resolve_workload(workload)
    with collector_off(benchmarks):
        machine = ReferenceBackend(benchmarks, engine, policy,
                                   workload_name=name)
        machine.warm(200)
        machine.advance(300)
        assert machine.result().cycles == 300
        del machine
        assert gc.collect() == 0


def test_a_campaign_cell_leaves_no_cyclic_garbage():
    cell = Cell("2_MEM", "stream", "ICOUNT.2.8", cycles=300, warmup=200,
                config=DEFAULT_CONFIG)
    with collector_off(resolve_workload(cell.workload)[0]):
        assert execute_cell(cell).cycles == 300
        assert gc.collect() == 0


def test_a_loop_that_outlives_its_core_says_so():
    """The cycle loop holds its core weakly, so a loop kept past the
    machine it belongs to raises a clear error instead of running on."""
    tick = Simulator(("gzip",)).core.tick
    with pytest.raises(ReferenceError, match="SmtCore was released"):
        tick()
