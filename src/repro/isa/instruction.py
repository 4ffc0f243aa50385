"""Static and dynamic instruction objects.

``StaticInstruction`` is one entry of the basic-block dictionary: the
immutable description of an instruction at a fixed address.  ``DynInst``
is one *fetched instance* of a static instruction flowing through the
pipeline — possibly on the wrong path.  Both use ``__slots__``; the
simulator creates millions of ``DynInst`` objects per run.
"""

from __future__ import annotations

from enum import IntEnum

INSTR_BYTES = 4
"""Instruction size in bytes (fixed-width RISC encoding)."""


class InstrClass(IntEnum):
    """Functional class of an instruction; selects queue, FU and latency."""

    INT_ALU = 0
    INT_MUL = 1
    FP_ALU = 2
    LOAD = 3
    STORE = 4
    BRANCH = 5


class BranchKind(IntEnum):
    """Control-flow kind. ``NOT_BRANCH`` marks ordinary instructions."""

    NOT_BRANCH = 0
    COND = 1        # conditional direct branch
    JUMP = 2        # unconditional direct jump
    CALL = 3        # direct call (pushes return address)
    RET = 4         # return (pops return address)
    IND_JUMP = 5    # indirect jump (e.g. switch table)


_LATENCY = {
    InstrClass.INT_ALU: 1,
    InstrClass.INT_MUL: 3,
    InstrClass.FP_ALU: 4,
    InstrClass.LOAD: 1,    # address generation; cache latency added at issue
    InstrClass.STORE: 1,   # address generation; data drains via write buffer
    InstrClass.BRANCH: 1,
}

LATENCY_TABLE: tuple[int, ...] = tuple(
    _LATENCY[InstrClass(k)] for k in range(len(InstrClass)))
"""``_LATENCY`` flattened for the issue stage: index by ``int(opclass)``
(a plain sequence index, no enum hashing on the hot path)."""


class StaticInstruction:
    """An instruction at a fixed code address inside a basic block.

    Attributes:
        sid: Globally unique static id within its program.
        addr: Code address (4-byte aligned).
        opclass: Functional class.
        kind: Branch kind (``NOT_BRANCH`` for non-branches).
        dest: Destination architectural register, or ``-1``.
        srcs: Source architectural registers (possibly empty tuple).
        target_addr: Static taken-target address for direct branches
            (``0`` for non-branches, returns and indirect jumps).
        behavior: Index into the program's behaviour table for conditional
            and indirect branches, ``-1`` otherwise.
        memgen: Index into the program's address-generator table for loads
            and stores, ``-1`` otherwise.
    """

    __slots__ = ("sid", "addr", "opclass", "op", "kind", "dest", "srcs",
                 "target_addr", "behavior", "memgen")

    # NOTE: the program generator inlines this constructor for body
    # instructions (repro/program/generator.py) — keep the two field
    # lists in sync when adding or removing slots.
    def __init__(self, sid: int, addr: int, opclass: InstrClass,
                 kind: BranchKind = BranchKind.NOT_BRANCH,
                 dest: int = -1, srcs: tuple[int, ...] = (),
                 target_addr: int = 0, behavior: int = -1,
                 memgen: int = -1) -> None:
        self.sid = sid
        self.addr = addr
        self.opclass = opclass
        self.op = int(opclass)      # plain-int opclass for hot indexing
        self.kind = kind
        self.dest = dest
        self.srcs = srcs
        self.target_addr = target_addr
        self.behavior = behavior
        self.memgen = memgen

    @property
    def is_branch(self) -> bool:
        """True for any control-flow instruction."""
        return self.kind != BranchKind.NOT_BRANCH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"StaticInstruction(sid={self.sid}, addr={self.addr:#x}, "
                f"{self.opclass.name}, {self.kind.name})")


class DynInst:
    """One fetched instance of a static instruction.

    Carries the speculative-control-flow bookkeeping the front-end needs
    (predicted vs. architectural outcome, divergence marker) and the
    execution-core bookkeeping (outstanding producers, completion state).

    Attributes:
        tid: Hardware thread (context) id.
        seq: Per-thread monotonically increasing fetch sequence number.
        static: The static instruction this instance executes.
        pc: Fetch address (a property; equals ``static.addr``).
        op: ``int(static.opclass)`` — the hot paths index
            latency/queue tables and compare classes with this plain
            int (IntEnum indexing and equality are measurably slower
            per-operation); ``opclass`` is a convenience property.
        on_correct_path: False once the thread's front-end has diverged.
        pred_taken / pred_target: Prediction attached by the fetch engine
            (``False``/``0`` for instructions predicted fall-through).
        actual_taken / actual_target: Architectural outcome — only
            meaningful for correct-path branches.
        diverges: True if this is the (unique, oldest) branch whose
            misprediction makes everything younger wrong-path.
        resolve_at_decode: True when the divergence is a misfetched direct
            jump/call, repairable as soon as the instruction is decoded.
        mem_addr: Effective address for loads and stores, ``0`` otherwise.
        request: The fetch request that materialised the instruction
            (holds front-end repair checkpoints).
        pending: Outstanding (uncompleted) producer count, set at
            dispatch and decremented at writeback; ``0`` means every
            source is available, so the instruction is issue-ready.
        waiters: Dispatched dependents to wake when this instruction
            completes (lazily created; ``None`` while empty).
        age: Global dispatch stamp; orders issue-queue entries.
    """

    __slots__ = ("tid", "seq", "static", "op",
                 "on_correct_path", "pred_taken", "pred_target",
                 "actual_taken", "actual_target", "diverges",
                 "resolve_at_decode", "mem_addr", "request",
                 "pending", "waiters", "age",
                 "issued", "completed", "squashed", "fetch_cycle")

    # NOTE: the fetch unit's `fetch_stage` closure inlines this
    # constructor (repro/frontend/fetch_unit.py) — keep the two field
    # lists in sync when adding or removing slots.
    def __init__(self, tid: int, seq: int, static: StaticInstruction,
                 fetch_cycle: int = 0) -> None:
        self.tid = tid
        self.seq = seq
        self.static = static
        self.op = static.op
        self.on_correct_path = True
        self.pred_taken = False
        self.pred_target = 0
        self.actual_taken = False
        self.actual_target = 0
        self.diverges = False
        self.resolve_at_decode = False
        self.mem_addr = 0
        self.request = None
        self.pending = 0
        self.waiters = None
        self.age = -1
        self.issued = False
        self.completed = False
        self.squashed = False
        self.fetch_cycle = fetch_cycle

    @property
    def pc(self) -> int:
        """Fetch address (``static.addr``; kept as a property so the
        hot constructor path stores one field fewer)."""
        return self.static.addr

    @property
    def opclass(self) -> InstrClass:
        """Functional class of the underlying static instruction."""
        return self.static.opclass

    @property
    def is_branch(self) -> bool:
        """True for any control-flow instruction."""
        return self.static.kind != BranchKind.NOT_BRANCH

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "ok" if self.on_correct_path else "wrong"
        return (f"DynInst(t{self.tid} seq={self.seq} pc={self.static.addr:#x} "
                f"{self.static.opclass.name} {path})")
