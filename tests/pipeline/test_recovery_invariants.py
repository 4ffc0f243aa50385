"""The invariants misprediction recovery relies on hold after every cycle.

``SmtCore``'s squash walks the squashing thread's ROB tail once and
treats its un-issued entries as that thread's IQ entries: it removes
them from their queues, filters only the ready lists that held one,
releases their registers and clears only the rename-map entries they
own.  That is exact only while the structures agree with each other,
so this test ticks compute- and memory-bound cells of every engine and
checks after each cycle that:

* the IQ entries are exactly the un-issued ROB entries;
* every ready list is age-ordered, lies inside its queue and holds only
  ``pending == 0`` entries;
* no rename map holds a squashed producer;
* free registers plus in-flight destinations equal the renaming pool,
  for the integer and the floating-point file;
* ``icounts[t]`` counts thread t's entries in the fetch buffer, both
  latches and the IQs;
* ``rob.size`` is the total length of the per-thread ROB lists;
* no queue, the shared ROB or a register pool holds more than its
  capacity.
"""

import pytest

from repro.backend import get_backend
from repro.core.workloads import resolve_workload
from repro.isa.instruction import InstrClass

# 4_MEM fills the ROB and the IQs to capacity; 8_MIX, with 8 x 32
# registers of each pool reserved, runs the rename pools dry.
WORKLOADS = ("2_ILP", "4_ILP", "4_MEM", "8_MIX")
ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
POLICIES = ("ICOUNT.1.8", "ICOUNT.2.8", "ICOUNT.2.16")
WARMUP = 1000
CYCLES = 600
ARCH_REGS = 32          # reserved per thread and pool
FP = int(InstrClass.FP_ALU)


def check(sim) -> None:
    core = sim.core
    n = len(sim.contexts)
    rob_entries = [di for lst in core.rob.lists for di in lst]
    assert core.rob.size == len(rob_entries) <= core.rob.capacity
    assert all(len(queue) <= capacity for queue, capacity
               in zip(core.iqs.queues, core.iqs.capacity))
    assert core.regs.free_int >= 0 and core.regs.free_fp >= 0

    queued = [di for queue in core.iqs.queues for di in queue]
    assert len(queued) == len(set(queued))
    assert set(queued) == {di for di in rob_entries if not di.issued}

    for queue, ready in zip(core.iqs.queues, core.iqs.ready):
        ages = [di.age for di in ready]
        assert ages == sorted(ages) and len(set(ages)) == len(ages)
        assert all(di in queue and di.pending == 0 for di in ready)

    for rmap in core.rename_map:
        assert not any(producer is not None and producer.squashed
                       for producer in rmap.values())

    params = core.params
    dests = [di for di in rob_entries if di.static.dest >= 0]
    fp_dests = sum(1 for di in dests if di.op == FP)
    assert core.regs.free_fp + fp_dests == params.fp_regs - n * ARCH_REGS
    assert core.regs.free_int + len(dests) - fp_dests \
        == params.int_regs - n * ARCH_REGS

    pre_issue = [0] * n
    for group in (sim.fetch_unit.fetch_buffer, core.decode_latch,
                  core.rename_latch, queued):
        for di in group:
            pre_issue[di.tid] += 1
    assert core.icounts == pre_issue


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_structures_agree_after_every_cycle(workload, engine, policy):
    benchmarks, name = resolve_workload(workload)
    machine = get_backend("reference")(benchmarks, engine, policy,
                                       workload_name=name)
    machine.warm(WARMUP)
    sim = machine.simulator
    tick = sim.core.tick
    check(sim)
    for _ in range(CYCLES):
        tick()
        check(sim)
    # The window really recovers from mispredictions.
    assert sim.core.stats.squashes > 0
