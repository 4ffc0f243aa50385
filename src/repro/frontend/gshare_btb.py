"""The conventional SMT fetch engine: gshare direction + BTB targets.

Block formation (paper Section 3.1): one direction prediction per cycle,
so a fetch block runs from the current PC to the first address that hits
in the BTB — at most one basic block, the bottleneck Figure 2 measures.
Branches absent from the BTB are invisible at fetch (implicitly
predicted not-taken); they are inserted when they resolve.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.branch.btb import BTB, BTBEntry
from repro.branch.gshare import GShare
from repro.branch.history import GlobalHistory
from repro.branch.ras import ReturnAddressStack
from repro.frontend.engine import GlobalHistoryEngine
from repro.frontend.request import FetchRequest
from repro.isa.instruction import INSTR_BYTES, BranchKind, DynInst

if TYPE_CHECKING:
    from repro.core.config import SimConfig


class GShareBtbEngine(GlobalHistoryEngine):
    """gshare (64K) + BTB (2K, 4-way) + per-thread RAS.

    Table 3 gives gshare 16 bits of global history; the default here is
    ``SimConfig.gshare_history = 6`` (DESIGN.md §3).
    """

    name = "gshare+BTB"

    def __init__(self, n_threads: int, config: SimConfig) -> None:
        self.n_threads = n_threads
        self.gshare = GShare(config.gshare_entries, config.gshare_history)
        self.btb = BTB(config.btb_entries, config.btb_assoc)
        self.ghr = [GlobalHistory(config.gshare_history)
                    for _ in range(n_threads)]
        self.ras = [ReturnAddressStack(config.ras_entries)
                    for _ in range(n_threads)]
        self._build_paths()

    def _build_paths(self) -> None:
        """Compile ``predict`` and ``resolve_branch`` as closures.

        ``predict`` runs every cycle and ``resolve_branch`` once per
        resolved branch.  Both inline their component calls over the
        captured (identity-stable) tables, in the components' order and
        with every counter and LRU move kept: the BTB probe and insert
        (:meth:`BTB.lookup`, :meth:`BTB.insert`), gshare's predict and
        update, and the GHR and RAS snapshot, push and pop.  The
        component classes remain the reference
        (``tests/frontend/test_engine_parity.py``).
        """
        ghrs = self.ghr
        rass = self.ras
        btb = self.btb
        btb_keys = btb._keys
        btb_table = btb._table
        btb_sets = btb_table._sets
        btb_mask = btb_table._set_mask
        btb_assoc = btb_table.assoc
        btb_entry = BTBEntry
        gshare = self.gshare
        counters = gshare._table._counters
        index_mask = gshare._index_mask
        fetch_request = FetchRequest
        instr_bytes = INSTR_BYTES
        key_step = INSTR_BYTES * 64     # BTB tag of the next address
        cond = BranchKind.COND
        ret = BranchKind.RET
        call = BranchKind.CALL

        def predict(tid: int, pc: int, width: int) -> FetchRequest:
            """Scan up to ``width`` addresses; stop at the first BTB hit."""
            ghr = ghrs[tid]
            ras = rass[tid]
            ghr_ckpt = ghr.value                # GlobalHistory.snapshot
            ras_stack = ras._stack
            ras_top = ras._top
            ras_ckpt = (ras_top, ras_stack[ras_top])    # RAS.snapshot
            # Block formation: one BTB.lookup per address until a hit.
            # A tag absent from the presence set misses without a set
            # scan, and the misses are counted once at the end.
            key = pc * 64 + tid
            for length in range(1, width + 1):
                if key in btb_keys:
                    break
                key += key_step
            else:
                btb_table.misses += width
                # Positional args (see FetchRequest signature): this
                # runs every cycle and keyword passing is measurable.
                return fetch_request(tid, pc, width,
                                     pc + width * instr_bytes,
                                     False, False, 0, ghr_ckpt, ras_ckpt)
            if length > 1:
                btb_table.misses += length - 1
            btb_table.hits += 1
            term_addr = pc + (length - 1) * instr_bytes
            slots = btb_sets[((term_addr >> 2) ^ (tid * 0x9E37)) & btb_mask]
            for posn, slot in enumerate(slots):
                if slot[0] == key:
                    if posn:
                        slots.insert(0, slots.pop(posn))
                    entry = slot[1]
                    break
            kind = entry.kind
            if kind == cond:
                # Inlined GShare.predict + GlobalHistory.push.
                gshare.lookups += 1
                taken = counters[((term_addr >> 2) ^ ghr_ckpt)
                                 & index_mask] >= 2
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
            else:                   # JUMP / IND_JUMP: last seen target
                taken = True
                target = entry.target
            next_pc = target if taken else term_addr + instr_bytes
            return fetch_request(tid, pc, length, next_pc,
                                 True, taken, target, ghr_ckpt, ras_ckpt)

        def resolve_branch(di: DynInst) -> None:
            """Insert every resolved branch into the BTB; train gshare."""
            static = di.static
            pc = static.addr
            tid = di.tid
            taken = di.actual_taken
            if taken:
                target = di.actual_target
            elif static.target_addr:
                target = static.target_addr
            else:
                target = pc + instr_bytes
            kind = static.kind
            # Inlined BTB.insert (SetAssocTable.insert + presence set).
            key = pc * 64 + tid
            slots = btb_sets[((pc >> 2) ^ (tid * 0x9E37)) & btb_mask]
            if key in btb_keys:
                if slots[0][0] == key:
                    slots[0] = (key, btb_entry(target, kind))
                else:
                    for posn, slot in enumerate(slots):
                        if slot[0] == key:
                            del slots[posn]
                            break
                    slots.insert(0, (key, btb_entry(target, kind)))
            else:
                btb_keys.add(key)
                slots.insert(0, (key, btb_entry(target, kind)))
                if len(slots) > btb_assoc:
                    btb_keys.discard(slots.pop()[0])
            request = di.request
            if kind == cond and request is not None:
                # Inlined GShare.update (and its counter update).
                gshare.updates += 1
                if di.pred_taken == taken:
                    gshare.correct += 1
                i = ((pc >> 2) ^ request.ghr_ckpt) & index_mask
                c = counters[i]
                if taken:
                    if c < 3:
                        counters[i] = c + 1
                elif c > 0:
                    counters[i] = c - 1

        self.predict = predict
        self.resolve_branch = resolve_branch

    def stats(self) -> dict[str, float]:
        """Direction accuracy and BTB hit rate."""
        probes = self.btb.hits + self.btb.misses
        return {
            "direction_accuracy": self.gshare.accuracy,
            "btb_hit_rate": self.btb.hits / probes if probes else 0.0,
        }

    def reset_stats(self) -> None:
        """Zero gshare and BTB counters; trained state is kept."""
        self.gshare.reset_stats()
        self.btb.reset_stats()
