"""Shared execution resources: queues, registers, ROB.

These are deliberately simple occupancy models — the simulation cares
about *when structures fill up and who is occupying them*, which is the
mechanism behind the paper's memory-bound results, not about port-level
micro-detail.
"""

from __future__ import annotations

from collections import deque

from repro.isa.instruction import DynInst, InstrClass

# Queue classes: integer (ALU/MUL/branches), load-store, floating point.
IQ_INT = 0
IQ_LDST = 1
IQ_FP = 2

_QUEUE_OF = {
    InstrClass.INT_ALU: IQ_INT,
    InstrClass.INT_MUL: IQ_INT,
    InstrClass.BRANCH: IQ_INT,
    InstrClass.LOAD: IQ_LDST,
    InstrClass.STORE: IQ_LDST,
    InstrClass.FP_ALU: IQ_FP,
}

QUEUE_TABLE: tuple[int, ...] = tuple(
    _QUEUE_OF[InstrClass(k)] for k in range(len(InstrClass)))
"""``_QUEUE_OF`` flattened for the hot path: index by ``int(opclass)``."""


class InstructionQueues:
    """Three shared issue queues (Table 3: 32 entries each).

    Entries wait here from dispatch to issue; each entry is a
    :class:`DynInst` carrying its dispatch stamp in ``age``.  A queue
    is an insertion-ordered dict keyed by the instruction (value
    ``None``): iteration is age-ordered so issue selection is
    oldest-first, while the issue stage's removal of an arbitrary
    entry is O(1) instead of a list scan.

    Alongside each queue sits a **ready list**: the age-ordered subset
    of entries whose producers have all completed
    (``DynInst.pending == 0``).  The issue stage iterates ready lists
    only, so waiting instructions cost nothing per cycle.  The fused
    cycle loop (:mod:`repro.pipeline.core`) maintains both at dispatch,
    issue and writeback; a decode-time redirect uses
    :meth:`remove_squashed`.
    """

    __slots__ = ("capacity", "queues", "ready")

    def __init__(self, int_entries: int, ldst_entries: int,
                 fp_entries: int) -> None:
        self.capacity = (int_entries, ldst_entries, fp_entries)
        self.queues: tuple[dict[DynInst, None], dict[DynInst, None],
                           dict[DynInst, None]] = ({}, {}, {})
        self.ready: tuple[list[DynInst], list[DynInst], list[DynInst]] = \
            ([], [], [])

    def remove_squashed(self, tid: int, seq_limit: int) -> int:
        """Drop entries of ``tid`` younger than ``seq_limit``.

        Returns the number of entries removed (for ICOUNT accounting).
        """
        removed = 0
        for q in range(3):
            queue = self.queues[q]
            victims = None
            for di in queue:
                if di.tid == tid and di.seq > seq_limit:
                    di.squashed = True
                    removed += 1
                    if victims is None:
                        victims = [di]
                    else:
                        victims.append(di)
            if victims is not None:
                for di in victims:
                    del queue[di]
                ready = self.ready[q]
                ready[:] = [di for di in ready if not di.squashed]
        return removed


class PhysicalRegisters:
    """Shared physical register pools (Table 3: 384 int + 384 fp).

    Architectural state reserves 32 registers per pool per thread; the
    remainder is the in-flight renaming budget.  Registers are allocated
    at dispatch and released at commit or squash — the paper-relevant
    property is that a stalled thread holds registers hostage.
    """

    __slots__ = ("free_int", "free_fp")

    def __init__(self, n_threads: int, int_regs: int, fp_regs: int,
                 arch_regs: int = 32) -> None:
        reserved = n_threads * arch_regs
        if int_regs <= reserved or fp_regs <= reserved:
            raise ValueError(
                f"register files too small for {n_threads} threads: "
                f"{int_regs} int / {fp_regs} fp vs {reserved} reserved")
        self.free_int = int_regs - reserved
        self.free_fp = fp_regs - reserved


class ReorderBuffer:
    """Shared-capacity ROB with per-thread in-order commit lists.

    Per-thread lists are deques: commit pops the head (O(1), where a
    plain list would shift the whole window) and squash pops the tail.
    """

    __slots__ = ("capacity", "lists", "size")

    def __init__(self, n_threads: int, capacity: int) -> None:
        self.capacity = capacity
        self.lists: list[deque[DynInst]] = \
            [deque() for _ in range(n_threads)]
        self.size = 0

