"""The enhanced single-prediction engine: gskew direction + FTB blocks.

One FTB lookup yields a whole fetch block that may *embed* never-taken
conditionals (paper Section 3.3): blocks are larger than a basic block,
raising single-thread fetch throughput without a second prediction port.
On an FTB miss the engine falls through sequentially and allocates an
entry when the block's terminating (taken) branch resolves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch.ftb import FTB, MAX_FTB_BLOCK, FTBEntry
from repro.branch.gskew import _HIST_MULT, _PC_MULT, GSkew
from repro.branch.history import GlobalHistory
from repro.branch.ras import ReturnAddressStack
from repro.frontend.engine import FetchEngine
from repro.frontend.request import FetchRequest
from repro.isa.instruction import INSTR_BYTES, BranchKind, DynInst

if TYPE_CHECKING:
    from repro.core.config import SimConfig


class GSkewFtbEngine(FetchEngine):
    """gskew (3x32K) + FTB (2K, 4-way) + per-thread RAS.

    Table 3 gives gskew 15 bits of global history; the default here is
    ``SimConfig.gskew_history = 5`` (DESIGN.md §3).
    """

    name = "gskew+FTB"
    commit_training = False     # commit() below is a no-op

    def __init__(self, n_threads: int, config: SimConfig) -> None:
        self.n_threads = n_threads
        self.gskew = GSkew(config.gskew_bank_entries, config.gskew_history)
        self.ftb = FTB(config.ftb_entries, config.ftb_assoc)
        self.ghr = [GlobalHistory(config.gskew_history)
                    for _ in range(n_threads)]
        self.ras = [ReturnAddressStack(config.ras_entries)
                    for _ in range(n_threads)]
        self._build_paths()

    def _build_paths(self) -> None:
        """Compile ``predict`` and ``resolve_branch`` as closures.

        As in the gshare engine: the FTB probe and insert
        (:meth:`FTB.lookup`, :meth:`FTB.insert`), gskew's three skewed
        indices, majority vote and partial update
        (:meth:`GSkew.predict`, :meth:`GSkew.update`), and the GHR and
        RAS operations are inlined in the components' order, with every
        counter and LRU move kept.
        """
        ghrs = self.ghr
        rass = self.ras
        ftb_table = self.ftb._table
        ftb_sets = ftb_table._sets
        ftb_mask = ftb_table._set_mask
        ftb_assoc = ftb_table.assoc
        ftb_entry = FTBEntry
        max_block = MAX_FTB_BLOCK
        gskew = self.gskew
        bank_mask = gskew._mask
        bank0, bank1, bank2 = (bank._counters for bank in gskew._banks)
        pc0, pc1, pc2 = _PC_MULT
        hist0, hist1, hist2 = _HIST_MULT
        fetch_request = FetchRequest
        instr_bytes = INSTR_BYTES
        cond = BranchKind.COND
        ret = BranchKind.RET
        call = BranchKind.CALL

        def predict(tid: int, pc: int, width: int) -> FetchRequest:
            """One FTB lookup forms the whole fetch block."""
            ghr = ghrs[tid]
            ras = rass[tid]
            ghr_ckpt = ghr.value                # GlobalHistory.snapshot
            ras_stack = ras._stack
            ras_top = ras._top
            ras_ckpt = (ras_top, ras_stack[ras_top])    # RAS.snapshot
            # Inlined FTB.lookup.
            slots = ftb_sets[((pc >> 2) ^ (tid * 0x9E37)) & ftb_mask]
            key = pc * 64 + tid
            for posn, slot in enumerate(slots):
                if slot[0] == key:
                    if posn:
                        slots.insert(0, slots.pop(posn))
                    ftb_table.hits += 1
                    entry = slot[1]
                    break
            else:
                ftb_table.misses += 1
                # FTB miss: fall through sequentially; allocation
                # happens at resolve time when a taken branch delimits
                # the block.
                # Positional args: this runs every cycle.
                return fetch_request(tid, pc, width,
                                     pc + width * instr_bytes,
                                     False, False, 0, ghr_ckpt, ras_ckpt)

            length = entry.length
            term_addr = pc + (length - 1) * instr_bytes
            kind = entry.kind
            if kind == cond:
                # Inlined GSkew.predict + GlobalHistory.push.
                gskew.lookups += 1
                word = term_addr >> 2
                high = word >> 13
                taken = ((bank0[((word * pc0) ^ (ghr_ckpt * hist0) ^ high)
                                & bank_mask] >= 2)
                         + (bank1[((word * pc1) ^ (ghr_ckpt * hist1) ^ high)
                                  & bank_mask] >= 2)
                         + (bank2[((word * pc2) ^ (ghr_ckpt * hist2) ^ high)
                                  & bank_mask] >= 2)) >= 2
                ghr.value = ((ghr_ckpt << 1) | taken) & ghr._mask
                target = entry.target
            elif kind == ret:
                taken = True
                target = ras_stack[ras_top]     # RAS.pop
                ras._top = (ras_top - 1) % ras.size
            elif kind == call:
                taken = True
                target = entry.target
                ras_top = (ras_top + 1) % ras.size      # RAS.push
                ras._top = ras_top
                ras_stack[ras_top] = term_addr + instr_bytes
            else:
                taken = True
                target = entry.target
            next_pc = target if taken else term_addr + instr_bytes
            return fetch_request(tid, pc, length, next_pc,
                                 True, taken, target, ghr_ckpt, ras_ckpt)

        def resolve_branch(di: DynInst) -> None:
            """Allocate fetch blocks on taken branches; train gskew."""
            static = di.static
            request = di.request
            if request is None:
                return
            pc = static.addr
            taken = di.actual_taken
            if taken:
                start = request.start_pc
                length = (pc - start) // instr_bytes + 1
                if 1 <= length:
                    # Inlined FTB.insert (SetAssocTable.insert).
                    if length > max_block:
                        length = max_block
                    tid = di.tid
                    key = start * 64 + tid
                    slots = ftb_sets[((start >> 2) ^ (tid * 0x9E37))
                                     & ftb_mask]
                    for posn, slot in enumerate(slots):
                        if slot[0] == key:
                            del slots[posn]
                            break
                    slots.insert(0, (key, ftb_entry(length,
                                                    di.actual_target,
                                                    static.kind)))
                    if len(slots) > ftb_assoc:
                        slots.pop()
            if static.kind == cond:
                # Inlined GSkew.update: partial update of the banks.
                history = request.ghr_ckpt
                word = pc >> 2
                high = word >> 13
                i0 = ((word * pc0) ^ (history * hist0) ^ high) & bank_mask
                i1 = ((word * pc1) ^ (history * hist1) ^ high) & bank_mask
                i2 = ((word * pc2) ^ (history * hist2) ^ high) & bank_mask
                c0 = bank0[i0]
                c1 = bank1[i1]
                c2 = bank2[i2]
                v0 = c0 >= 2
                v1 = c1 >= 2
                v2 = c2 >= 2
                gskew.updates += 1
                if di.pred_taken == taken:
                    gskew.correct += 1
                agree = (v0 + v1 + v2 >= 2) == taken
                if taken:
                    if c0 < 3 and (v0 or not agree):
                        bank0[i0] = c0 + 1
                    if c1 < 3 and (v1 or not agree):
                        bank1[i1] = c1 + 1
                    if c2 < 3 and (v2 or not agree):
                        bank2[i2] = c2 + 1
                else:
                    if c0 > 0 and (not v0 or not agree):
                        bank0[i0] = c0 - 1
                    if c1 > 0 and (not v1 or not agree):
                        bank1[i1] = c1 - 1
                    if c2 > 0 and (not v2 or not agree):
                        bank2[i2] = c2 - 1

        self.predict = predict
        self.resolve_branch = resolve_branch

    def commit(self, di: DynInst) -> None:
        """No commit-side training for this engine."""

    def repair(self, tid: int, di: DynInst) -> None:
        """Restore GHR and RAS, then re-apply ``di``'s own effect."""
        request = di.request
        if request is None:
            return
        ghr = self.ghr[tid]
        ras = self.ras[tid]
        if request.ghr_ckpt is not None:
            ghr.restore(request.ghr_ckpt)
        if di.static.kind == BranchKind.COND:
            ghr.push(di.actual_taken)
        if request.ras_ckpt is not None:
            ras.restore(request.ras_ckpt)
        if di.static.kind == BranchKind.CALL:
            ras.push(di.pc + INSTR_BYTES)
        elif di.static.kind == BranchKind.RET:
            ras.pop()

    def stats(self) -> dict[str, float]:
        """Direction accuracy and FTB hit rate."""
        probes = self.ftb.hits + self.ftb.misses
        return {
            "direction_accuracy": self.gskew.accuracy,
            "ftb_hit_rate": self.ftb.hits / probes if probes else 0.0,
        }

    def reset_stats(self) -> None:
        """Zero gskew and FTB counters; trained state is kept."""
        self.gskew.reset_stats()
        self.ftb.reset_stats()
