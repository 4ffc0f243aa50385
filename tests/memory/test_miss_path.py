"""The inlined ``ifetch``/``dread``/``dwrite`` closures equal the components.

``MemoryHierarchy`` compiles its three access paths, hits and misses
alike, into closures over the caches', TLBs' and MSHR file's internal
state.  The reference here composes the same accesses from the public
component API (``Tlb.access``, ``Cache.probe``/``fill``,
``MshrFile.request``) and both run on a tiny hierarchy where evictions,
TLB misses, MSHR rejections and coalescing all occur.  After every
access the return value, every counter and all cache, TLB and MSHR
contents must agree.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_CONFIG
from repro.memory.cache import Cache
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.mshr import MshrFile
from repro.memory.tlb import DEFAULT_PAGE_BYTES as PAGE, Tlb

LINE = 64
L1_LATENCY, L2_LATENCY, MEMORY_LATENCY = 1, 10, 100
SIZES = dict(l1i_kb=1, l1i_assoc=2, l1d_kb=1, l1d_assoc=2, l2_kb=4,
             l2_assoc=2, line_bytes=LINE, itlb_entries=4, dtlb_entries=4,
             dmshr_entries=2)
CONFIG = DEFAULT_CONFIG.with_(l1_latency=L1_LATENCY, l2_latency=L2_LATENCY,
                              memory_latency=MEMORY_LATENCY, **SIZES)


class ReferenceHierarchy:
    """The three access paths composed from component calls."""

    def __init__(self) -> None:
        self.l1i = Cache("L1I", SIZES["l1i_kb"] * 1024, SIZES["l1i_assoc"],
                         LINE)
        self.l1d = Cache("L1D", SIZES["l1d_kb"] * 1024, SIZES["l1d_assoc"],
                         LINE)
        self.l2 = Cache("L2", SIZES["l2_kb"] * 1024, SIZES["l2_assoc"], LINE)
        self.itlb = Tlb(SIZES["itlb_entries"])
        self.dtlb = Tlb(SIZES["dtlb_entries"])
        self.dmshr = MshrFile(SIZES["dmshr_entries"])

    def _miss_to_l2(self, addr, asid):
        if self.l2.probe(addr, asid):
            return L2_LATENCY
        self.l2.fill(addr, asid)
        return L2_LATENCY + MEMORY_LATENCY

    def _next_line_prefetch(self, cache, addr, asid):
        next_addr = addr + LINE
        if not self.l2.probe(next_addr, asid):
            self.l2.fill(next_addr, asid)
        cache.fill(next_addr, asid)

    def ifetch(self, asid, addr, cycle):
        penalty = self.itlb.access(addr, asid)
        if self.l1i.probe(addr, asid):
            return penalty == 0, cycle + penalty
        latency = penalty + self._miss_to_l2(addr, asid)
        self.l1i.fill(addr, asid)
        self._next_line_prefetch(self.l1i, addr, asid)
        return False, cycle + latency

    def dread(self, asid, addr, cycle):
        penalty = self.dtlb.access(addr, asid)
        if self.l1d.probe(addr, asid):
            return L1_LATENCY + penalty
        fill_latency = self._miss_to_l2(addr, asid)
        ready = self.dmshr.request(asid, addr // LINE, cycle,
                                   cycle + penalty + fill_latency)
        if ready is None:
            return None
        self.l1d.fill(addr, asid)
        self._next_line_prefetch(self.l1d, addr, asid)
        return max(ready - cycle, L1_LATENCY)

    def dwrite(self, asid, addr, cycle):
        self.dtlb.access(addr, asid)
        if not self.l1d.probe(addr, asid):
            self._miss_to_l2(addr, asid)
            self.l1d.fill(addr, asid)

    def warm_instruction_side(self, asid, start_addr, end_addr):
        for addr in range(start_addr - start_addr % LINE, end_addr, LINE):
            self.l2.fill(addr, asid)
        for addr in range(start_addr - start_addr % PAGE, end_addr, PAGE):
            self.itlb.access(addr, asid)

    def warm_data_side(self, asid, regions, l2_budget_bytes,
                       tlb_budget_pages):
        budget, pages_left, seen = l2_budget_bytes, tlb_budget_pages, set()
        for base, footprint in regions:
            if base in seen:
                continue
            seen.add(base)
            for addr in range(base, base + footprint, LINE):
                if budget <= 0:
                    break
                self.l2.fill(addr, asid)
                budget -= LINE
            for addr in range(base, base + footprint, PAGE):
                if pages_left <= 0:
                    break
                self.dtlb.access(addr, asid)
                pages_left -= 1
            if budget <= 0 and pages_left <= 0:
                break


def state(mem) -> dict:
    """Every counter and every piece of line/translation state."""
    out = {}
    for name in ("l1i", "l1d", "l2"):
        cache = getattr(mem, name)
        out[name] = (cache.hits, cache.misses, cache._sets)
    for name in ("itlb", "dtlb"):
        tlb = getattr(mem, name)
        out[name] = (tlb.hits, tlb.misses, list(tlb._order))
    mshr = mem.dmshr
    out["dmshr"] = (mshr.coalesced, mshr.rejections, mshr._entries,
                    mshr._earliest)
    return out


def replay(accesses) -> MemoryHierarchy:
    """Run ``accesses`` on both models, comparing after each one."""
    mem = MemoryHierarchy(CONFIG)
    ref = ReferenceHierarchy()
    cycle = 0
    for i, (kind, asid, addr, gap) in enumerate(accesses):
        cycle += gap
        got = getattr(mem, kind)(asid, addr, cycle)
        if kind == "ifetch":
            got = (got.hit, got.ready_cycle)
        want = getattr(ref, kind)(asid, addr, cycle)
        assert got == want, (i, kind, asid, hex(addr), cycle)
        assert state(mem) == state(ref), (i, kind, asid, hex(addr), cycle)
    return mem


# Two threads touching two lines in each of eight pages, a few cycles
# apart: more pages than the 4-entry TLBs hold, lines that collide in
# the 8-set L1s, and misses close enough together that the 2 MSHRs fill
# up and a line evicted while its miss is in flight gets missed again.
THREADS, PAGES, LINES_PER_PAGE, MAX_GAP = 2, 8, 2, 5
KINDS = ("ifetch", "dread", "dread", "dwrite")
ADDRESS = st.builds(lambda page, line, offset: page * PAGE + line * LINE
                    + offset, st.integers(0, PAGES - 1),
                    st.integers(0, LINES_PER_PAGE - 1),
                    st.integers(0, LINE - 1))
ACCESS = st.tuples(st.sampled_from(KINDS), st.integers(0, THREADS - 1),
                   ADDRESS, st.integers(0, MAX_GAP))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ACCESS, max_size=200))
def test_closures_match_component_reference(accesses):
    replay(accesses)


def test_every_miss_path_branch_occurs():
    """A fixed random stream reaches every branch the property relies on."""
    rng = random.Random(13)
    accesses = [(rng.choice(KINDS), rng.randrange(THREADS),
                 rng.randrange(PAGES) * PAGE
                 + rng.randrange(LINES_PER_PAGE) * LINE
                 + rng.randrange(LINE),
                 rng.randrange(MAX_GAP + 1)) for _ in range(3000)]
    mem = replay(accesses)
    for name in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        component = getattr(mem, name)
        assert component.hits > 0 and component.misses > 0, name
    # Every line touched was filled at least into L2, and every fetched
    # line into L1I: fewer resident lines than touched ones means some
    # were evicted.
    touched = {(asid, addr // LINE) for _, asid, addr, _ in accesses}
    fetched = {(asid, addr // LINE) for kind, asid, addr, _ in accesses
               if kind == "ifetch"}
    assert sum(map(len, mem.l2._sets)) < len(touched)
    assert sum(map(len, mem.l1i._sets)) < len(fetched)
    assert mem.dmshr.rejections > 0
    assert mem.dmshr.coalesced > 0


# Build-time warm-ups: code ranges and data regions with unaligned
# bases, repeated bases, and budgets that run out mid-region, over an
# L2 small enough that the warm-ups evict each other's lines.
WARM_START = st.integers(0, PAGES * PAGE)
REGION = st.tuples(WARM_START, st.integers(0, 2 * PAGE))
WARM = st.one_of(
    st.tuples(st.just("warm_instruction_side"),
              st.integers(0, THREADS - 1), WARM_START,
              st.integers(0, PAGE)).map(
        lambda w: (w[0], w[1], w[2], w[2] + w[3])),
    st.tuples(st.just("warm_data_side"), st.integers(0, THREADS - 1),
              st.lists(REGION, max_size=6), st.integers(-LINE, 2 * PAGE),
              st.integers(0, 6)))


@settings(max_examples=100, deadline=None)
@given(st.lists(WARM, max_size=6))
def test_warm_ups_match_component_reference(warm_ups):
    mem = MemoryHierarchy(CONFIG)
    ref = ReferenceHierarchy()
    for kind, *args in warm_ups:
        getattr(mem, kind)(*args)
        getattr(ref, kind)(*args)
        assert state(mem) == state(ref), (kind, args)
