"""Latency composition across the cache hierarchy.

The hierarchy owns the L1I, L1D, unified L2, the TLBs and the D-side
MSHR file, and turns probes into ready-times:

* instruction fetches return ``(hit, ready_cycle)`` — the fetch unit
  blocks the thread until the line arrives (I-side misses are per-thread
  blocking, one outstanding line per thread, as in the paper's 1.X
  design; the 2.X design simply has one such slot per thread);
* data reads return a latency, or None when no MSHR is available;
* data writes update line state through a write buffer (no stall).

Fills are installed at request time (latency is still charged); this
"atomic fill" simplification is standard in trace-driven simulators and
keeps hit/miss sequences deterministic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.memory.cache import Cache
from repro.memory.mshr import MshrFile
from repro.memory.tlb import Tlb

if TYPE_CHECKING:
    from repro.core.config import SimConfig


class AccessResult:
    """Outcome of an instruction-side access.

    .. warning:: :meth:`MemoryHierarchy.ifetch` returns a *shared,
       reused* instance for penalty-free hits (the overwhelmingly
       common case) — consume ``hit``/``ready_cycle`` before issuing
       the next access instead of storing the object.
    """

    __slots__ = ("hit", "ready_cycle")

    def __init__(self, hit: bool, ready_cycle: int) -> None:
        self.hit = hit
        self.ready_cycle = ready_cycle


class MemoryHierarchy:
    """Table 3 memory system: L1I + L1D over unified L2 over DRAM.

    Every size and latency is read from ``config`` when the hierarchy
    is built.
    """

    def __init__(self, config: SimConfig) -> None:
        line_bytes = config.line_bytes
        banks = config.cache_banks
        self.l1i = Cache("L1I", config.l1i_kb * 1024, config.l1i_assoc,
                         line_bytes, banks)
        self.l1d = Cache("L1D", config.l1d_kb * 1024, config.l1d_assoc,
                         line_bytes, banks)
        self.l2 = Cache("L2", config.l2_kb * 1024, config.l2_assoc,
                        line_bytes, banks)
        self.itlb = Tlb(config.itlb_entries)
        self.dtlb = Tlb(config.dtlb_entries)
        self.dmshr = MshrFile(config.dmshr_entries)
        self._build_fast_paths(config)

    def _build_fast_paths(self, config: SimConfig) -> None:
        """Compile ``ifetch``/``dread``/``dwrite`` as closures.

        These run once or twice every simulated cycle, and on the
        memory-bound workloads most data accesses miss, so both paths
        are inlined: the TLB and L1 probes, and on a miss the L2 probe
        and fill, the MSHR request (with its prune) and the tagged
        next-line prefetch.  Every counter increment, LRU move and
        MSHR ``_earliest`` update happens in the order the component
        calls would make it; ``Tlb.access``, ``Cache.probe``/``fill``
        and ``MshrFile.request`` remain the reference implementation
        (``tests/memory/test_miss_path.py`` replays random access
        streams against a hierarchy composed from them).  Captured
        structures (cache sets, TLB order dicts, the MSHR entry dict)
        are identity-stable — mutated in place, never rebound.
        ``ifetch`` returns a shared :class:`AccessResult` on the common
        penalty-free hit; callers consume the result before the next
        access (the fetch stage and the tests both do), so the reuse is
        safe and saves an allocation per fetch cycle.

        Each instruction-fetch or load miss triggers a tagged next-line
        prefetch (21264-era hardware): the following line is installed
        in the missing L1 and in L2, without modelling its memory
        traffic.  Sequential (stride) walks hit as on 2004 hardware,
        while pointer chases gain nothing, preserving the paper's
        ILP-vs-MEM contrast.
        """
        itlb = self.itlb
        itlb_order = itlb._order
        itlb_move = itlb_order.move_to_end
        itlb_pop = itlb_order.popitem
        itlb_shift = itlb._page_shift
        itlb_entries = itlb.entries
        itlb_penalty = itlb.miss_penalty
        dtlb = self.dtlb
        dtlb_order = dtlb._order
        dtlb_move = dtlb_order.move_to_end
        dtlb_pop = dtlb_order.popitem
        dtlb_shift = dtlb._page_shift
        dtlb_entries = dtlb.entries
        dtlb_penalty = dtlb.miss_penalty
        # All three caches share the hierarchy's line size, so one line
        # number (and one ``line * 64 + asid`` key) serves every level.
        line_shift = config.line_bytes.bit_length() - 1
        l1i = self.l1i
        l1i_sets = l1i._sets
        l1i_mask = l1i._set_mask
        l1i_assoc = l1i.assoc
        l1d = self.l1d
        l1d_sets = l1d._sets
        l1d_mask = l1d._set_mask
        l1d_assoc = l1d.assoc
        l2 = self.l2
        l2_sets = l2._sets
        l2_mask = l2._set_mask
        l2_assoc = l2.assoc
        dmshr = self.dmshr
        mshr_entries = dmshr._entries
        mshr_capacity = dmshr.capacity
        mshr_never = dmshr._NEVER
        l1_latency = config.l1_latency
        l2_latency = config.l2_latency
        l2_miss_latency = l2_latency + config.memory_latency
        access_result = AccessResult
        hit_result = AccessResult(True, 0)
        # Same-key TLB filters: when an access repeats the immediately
        # preceding (asid, page) of its TLB, that entry is already MRU
        # — the hit can be counted without the dict membership test or
        # the (idempotent) move_to_end.  Bit-identical by construction.
        itlb_last = [-1, -1]
        dtlb_last = [-1, -1]

        def ifetch(asid: int, addr: int, cycle: int) -> AccessResult:
            """Instruction-side access for the line holding ``addr``."""
            page = addr >> itlb_shift
            if itlb_last[0] == page and itlb_last[1] == asid:
                itlb.hits += 1
                penalty = 0
            else:
                key = (asid, page)
                if key in itlb_order:   # inlined Tlb.access hit path
                    itlb_move(key)
                    itlb.hits += 1
                    penalty = 0
                else:
                    itlb.misses += 1
                    itlb_order[key] = None
                    if len(itlb_order) > itlb_entries:
                        itlb_pop(last=False)
                    penalty = itlb_penalty
                itlb_last[0] = page
                itlb_last[1] = asid
            line = addr >> line_shift   # inlined Cache.probe
            salt = asid * 0x9E37
            lines = l1i_sets[(line ^ salt) & l1i_mask]
            line_key = line * 64 + asid
            try:
                pos = lines.index(line_key)
            except ValueError:
                l1i.misses += 1
                # L2 probe, filling on a miss.
                lines2 = l2_sets[(line ^ salt) & l2_mask]
                if line_key in lines2:
                    pos = lines2.index(line_key)
                    if pos:
                        lines2.insert(0, lines2.pop(pos))
                    l2.hits += 1
                    latency = penalty + l2_latency
                else:
                    l2.misses += 1
                    lines2.insert(0, line_key)
                    if len(lines2) > l2_assoc:
                        lines2.pop()
                    latency = penalty + l2_miss_latency
                # L1I fill (the line just missed there).
                lines.insert(0, line_key)
                if len(lines) > l1i_assoc:
                    lines.pop()
                # Next-line prefetch into L2 and L1I.
                line += 1
                line_key += 64
                lines2 = l2_sets[(line ^ salt) & l2_mask]
                if line_key in lines2:
                    pos = lines2.index(line_key)
                    if pos:
                        lines2.insert(0, lines2.pop(pos))
                    l2.hits += 1
                else:
                    l2.misses += 1
                    lines2.insert(0, line_key)
                    if len(lines2) > l2_assoc:
                        lines2.pop()
                lines = l1i_sets[(line ^ salt) & l1i_mask]
                if line_key in lines:
                    lines.remove(line_key)
                lines.insert(0, line_key)
                if len(lines) > l1i_assoc:
                    lines.pop()
                return access_result(False, cycle + latency)
            if pos:
                lines.insert(0, lines.pop(pos))
            l1i.hits += 1
            if penalty:
                return access_result(False, cycle + penalty)
            hit_result.ready_cycle = cycle
            return hit_result

        def dread(asid: int, addr: int, cycle: int) -> int | None:
            """Data read; returns latency, or None when MSHRs are full."""
            page = addr >> dtlb_shift
            if dtlb_last[0] == page and dtlb_last[1] == asid:
                dtlb.hits += 1
                penalty = 0
            else:
                key = (asid, page)
                if key in dtlb_order:   # inlined Tlb.access hit path
                    dtlb_move(key)
                    dtlb.hits += 1
                    penalty = 0
                else:
                    dtlb.misses += 1
                    dtlb_order[key] = None
                    if len(dtlb_order) > dtlb_entries:
                        dtlb_pop(last=False)
                    penalty = dtlb_penalty
                dtlb_last[0] = page
                dtlb_last[1] = asid
            line = addr >> line_shift   # inlined Cache.probe; `in`
            salt = asid * 0x9E37
            lines = l1d_sets[(line ^ salt) & l1d_mask]
            line_key = line * 64 + asid  # avoids raising on the misses
            if line_key in lines:        # MEM workloads produce often
                pos = lines.index(line_key)
                if pos:
                    lines.insert(0, lines.pop(pos))
                l1d.hits += 1
                return l1_latency + penalty
            l1d.misses += 1
            # L2 probe, filling on a miss.  A load rejected below for
            # want of an MSHR keeps this L2 state (its replay hits L2).
            lines2 = l2_sets[(line ^ salt) & l2_mask]
            if line_key in lines2:
                pos = lines2.index(line_key)
                if pos:
                    lines2.insert(0, lines2.pop(pos))
                l2.hits += 1
                ready = cycle + penalty + l2_latency
            else:
                l2.misses += 1
                lines2.insert(0, line_key)
                if len(lines2) > l2_assoc:
                    lines2.pop()
                ready = cycle + penalty + l2_miss_latency
            # Inlined MshrFile.request (and its prune).
            if cycle >= dmshr._earliest:
                done = [k for k, due in mshr_entries.items() if due <= cycle]
                for k in done:
                    del mshr_entries[k]
                dmshr._earliest = min(mshr_entries.values(),
                                      default=mshr_never)
            key = (asid, line)
            existing = mshr_entries.get(key)
            if existing is not None:
                dmshr.coalesced += 1
                ready = existing
            elif len(mshr_entries) >= mshr_capacity:
                dmshr.rejections += 1
                return None
            else:
                mshr_entries[key] = ready
                if ready < dmshr._earliest:
                    dmshr._earliest = ready
            # L1D fill (the line just missed there).
            lines.insert(0, line_key)
            if len(lines) > l1d_assoc:
                lines.pop()
            # Next-line prefetch into L2 and L1D.
            line += 1
            line_key += 64
            lines2 = l2_sets[(line ^ salt) & l2_mask]
            if line_key in lines2:
                pos = lines2.index(line_key)
                if pos:
                    lines2.insert(0, lines2.pop(pos))
                l2.hits += 1
            else:
                l2.misses += 1
                lines2.insert(0, line_key)
                if len(lines2) > l2_assoc:
                    lines2.pop()
            lines = l1d_sets[(line ^ salt) & l1d_mask]
            if line_key in lines:
                lines.remove(line_key)
            lines.insert(0, line_key)
            if len(lines) > l1d_assoc:
                lines.pop()
            delay = ready - cycle
            return delay if delay > l1_latency else l1_latency

        def dwrite(asid: int, addr: int, cycle: int) -> None:
            """Data write: write-allocate through a non-blocking buffer."""
            page = addr >> dtlb_shift
            if dtlb_last[0] == page and dtlb_last[1] == asid:
                dtlb.hits += 1
            else:
                key = (asid, page)
                if key in dtlb_order:   # inlined Tlb.access
                    dtlb_move(key)
                    dtlb.hits += 1
                else:
                    dtlb.misses += 1
                    dtlb_order[key] = None
                    if len(dtlb_order) > dtlb_entries:
                        dtlb_pop(last=False)
                dtlb_last[0] = page
                dtlb_last[1] = asid
            line = addr >> line_shift   # inlined Cache.probe
            salt = asid * 0x9E37
            lines = l1d_sets[(line ^ salt) & l1d_mask]
            line_key = line * 64 + asid
            if line_key in lines:
                pos = lines.index(line_key)
                if pos:
                    lines.insert(0, lines.pop(pos))
                l1d.hits += 1
                return
            l1d.misses += 1
            # L2 probe, filling on a miss; then the L1D fill.
            lines2 = l2_sets[(line ^ salt) & l2_mask]
            if line_key in lines2:
                pos = lines2.index(line_key)
                if pos:
                    lines2.insert(0, lines2.pop(pos))
                l2.hits += 1
            else:
                l2.misses += 1
                lines2.insert(0, line_key)
                if len(lines2) > l2_assoc:
                    lines2.pop()
            lines.insert(0, line_key)
            if len(lines) > l1d_assoc:
                lines.pop()

        self.ifetch = ifetch
        self.dread = dread
        self.dwrite = dwrite

    def ibank_of(self, addr: int, asid: int = 0) -> int:
        """I-cache bank servicing ``addr`` (for 2.X conflict logic)."""
        return self.l1i.bank_of(addr, asid)

    def warm_instruction_side(self, asid: int, start_addr: int,
                              end_addr: int) -> None:
        """Pre-fill L2 and the I-TLB with a code range.

        The paper's traces start after tens of billions of fast-forward
        instructions, so hot code is resident in L2 by construction.
        Without this, short simulations are dominated by compulsory
        DRAM misses that the paper's numbers never see.  L1I is left
        cold: its misses hit L2 (10 cycles) and warm up quickly.
        """
        line = self.l1i.line_bytes
        self._warm_l2(asid, range(start_addr - (start_addr % line),
                                  end_addr, line))
        page = self.itlb.page_bytes
        for addr in range(start_addr - (start_addr % page), end_addr, page):
            self.itlb.access(addr, asid)

    def warm_data_side(self, asid: int, regions: list[tuple[int, int]],
                       l2_budget_bytes: int = 256 * 1024,
                       tlb_budget_pages: int = 64) -> None:
        """Pre-fill L2/L1D and the D-TLB with a thread's hot data.

        Steady-state equivalent of the paper's multi-billion-instruction
        fast-forward: small regions (stacks, hot arrays) are resident,
        while working sets beyond the budget still miss — preserving the
        memory-bound behaviour of the MEM benchmarks.

        Args:
            asid: Thread id.
            regions: ``(base, footprint_bytes)`` pairs, hottest first.
            l2_budget_bytes: Total bytes to install in L2 per thread.
            tlb_budget_pages: D-TLB pages to pre-translate per thread.
        """
        line = self.l1d.line_bytes
        page = self.dtlb.page_bytes
        budget = l2_budget_bytes
        pages_left = tlb_budget_pages
        seen: set[int] = set()
        for base, footprint in regions:
            if base in seen:
                continue
            seen.add(base)
            if budget > 0:
                # What is left of the budget buys ceil(budget / line)
                # more lines.
                lines = range(base, base + footprint, line)
                lines = lines[:-(-budget // line)]
                self._warm_l2(asid, lines)
                budget -= len(lines) * line
            for addr in range(base, base + footprint, page):
                if pages_left <= 0:
                    break
                self.dtlb.access(addr, asid)
                pages_left -= 1
            if budget <= 0 and pages_left <= 0:
                break

    def _warm_l2(self, asid: int, addrs: range) -> None:
        """``self.l2.fill(addr, asid)`` for each of ``addrs``, in order.

        ``Cache.fill`` inlined: every machine build warms thousands of
        lines per thread.
        """
        l2 = self.l2
        sets = l2._sets
        mask = l2._set_mask
        assoc = l2.assoc
        shift = l2._line_shift
        salt = asid * 0x9E37
        for addr in addrs:
            line = addr >> shift
            lines = sets[(line ^ salt) & mask]
            key = line * 64 + asid
            if key in lines:
                lines.remove(key)
            lines.insert(0, key)
            if len(lines) > assoc:
                lines.pop()

    def reset_stats(self) -> None:
        """Zero every counter in the hierarchy (caches, TLBs, MSHRs).

        Cache/TLB contents and in-flight misses are untouched: this is
        the warm-up boundary, where training is kept and statistics are
        discarded.
        """
        for component in (self.l1i, self.l1d, self.l2, self.itlb,
                          self.dtlb, self.dmshr):
            component.reset_stats()
