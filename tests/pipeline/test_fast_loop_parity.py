"""``run_fast`` over many cycles equals stepping it one ``tick()`` at a time.

``tick()`` is ``run_fast(1)``: every call starts from the machine's
state alone, so it carries nothing from one cycle to the next and
serves as the reference for anything the fused loop remembers across
cycles within one call.  Golden parity pins ``SimResult`` only; this
test also pins the counters that never reach it (dispatch stalls,
issued-instruction count, MSHR back-pressure, per-component hit/miss
counts), in the memory-bound and mixed regimes where stalls and MSHR
rejections pile up.
"""

from dataclasses import asdict

import pytest

from repro.backend import get_backend
from repro.core.workloads import resolve_workload

WORKLOADS = ("2_MEM", "4_MEM", "2_MIX")
ENGINES = ("gshare+BTB", "gskew+FTB", "stream")
POLICIES = ("ICOUNT.1.8", "ICOUNT.2.8")
WARMUP = 1000
CYCLES = 2000


def build(workload: str, engine: str, policy: str):
    benchmarks, name = resolve_workload(workload)
    machine = get_backend("reference")(benchmarks, engine, policy,
                                       workload_name=name)
    machine.warm(WARMUP)
    return machine


def counters(machine) -> dict:
    sim = machine.simulator
    mem = sim.memory
    out = {"result": machine.result().to_dict(),
           "core": asdict(sim.core.stats),
           "mshr": (mem.dmshr.rejections, mem.dmshr.coalesced)}
    for part in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        component = getattr(mem, part)
        out[part] = (component.hits, component.misses)
    return out


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_advance_matches_tick_on_every_counter(workload, engine, policy):
    fast = build(workload, engine, policy)
    stepped = build(workload, engine, policy)
    fast.advance(CYCLES)
    tick = stepped.simulator.core.tick
    for _ in range(CYCLES):
        tick()
    expected = counters(stepped)
    got = counters(fast)
    assert got == expected
    # The regime this guards: the window really stalls dispatch.
    assert expected["core"]["dispatch_stalls"] > 0
