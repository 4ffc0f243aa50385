"""Static program structure: basic blocks, functions and the dictionary.

``Program`` doubles as the paper's "basic block dictionary": the
simulator can materialise the instruction at *any* code address, which is
what permits execution along wrong paths in a trace-driven setting.
"""

from __future__ import annotations

from repro.isa.instruction import INSTR_BYTES, BranchKind, StaticInstruction
from repro.program.behavior import BranchBehavior
from repro.program.memgen import AddressGenerator


class StaticBasicBlock:
    """A straight-line run of instructions, at most one branch at the end.

    Blocks are laid out contiguously: the fall-through successor of a
    block is simply the instruction at ``end_addr``.
    """

    __slots__ = ("bid", "fid", "start_addr", "instrs")

    def __init__(self, bid: int, fid: int, start_addr: int,
                 instrs: list[StaticInstruction]) -> None:
        self.bid = bid
        self.fid = fid
        self.start_addr = start_addr
        self.instrs = instrs

    @property
    def size(self) -> int:
        """Number of instructions in the block."""
        return len(self.instrs)

    @property
    def end_addr(self) -> int:
        """Address one past the last instruction (the fall-through PC)."""
        return self.start_addr + len(self.instrs) * INSTR_BYTES

    @property
    def terminator(self) -> StaticInstruction | None:
        """The terminating branch, or None for a pure fall-through block."""
        last = self.instrs[-1]
        return last if last.is_branch else None


class Function:
    """A contiguous group of basic blocks with a single entry."""

    __slots__ = ("fid", "block_ids", "entry_bid")

    def __init__(self, fid: int, block_ids: list[int]) -> None:
        if not block_ids:
            raise ValueError("a function needs at least one block")
        self.fid = fid
        self.block_ids = block_ids
        self.entry_bid = block_ids[0]


class Program:
    """A complete synthetic benchmark: code, behaviours, address streams.

    Attributes:
        name: Benchmark name (e.g. ``"gzip"``).
        seed: Seed the program was generated from.
        functions / blocks: Static structure; ``blocks`` indexed by bid.
        behaviors: Behaviour table indexed by
            ``StaticInstruction.behavior``.
        memgens: Address-generator table indexed by
            ``StaticInstruction.memgen``.
        entry_addr: Address of the first instruction of function 0.
    """

    def __init__(self, name: str, seed: int, functions: list[Function],
                 blocks: list[StaticBasicBlock],
                 behaviors: list[BranchBehavior],
                 memgens: list[AddressGenerator]) -> None:
        self.name = name
        self.seed = seed
        self.functions = functions
        self.blocks = blocks
        self.behaviors = behaviors
        self.memgens = memgens
        self.entry_addr = blocks[functions[0].entry_bid].start_addr
        self._instr_map: dict[int, StaticInstruction] = {
            instr.addr: instr for block in blocks for instr in block.instrs}

    def instr_at(self, addr: int) -> StaticInstruction | None:
        """Dictionary lookup: the static instruction at ``addr``, if any.

        Returns None for addresses outside the program (a wrong-path
        front-end can run off the end of the code; the fetch unit treats
        that as a stalled fetch until the misprediction resolves).
        """
        return self._instr_map.get(addr)

    @property
    def instruction_count(self) -> int:
        """Total number of static instructions."""
        return len(self._instr_map)

    @property
    def code_bytes(self) -> int:
        """Static code footprint in bytes."""
        return self.instruction_count * INSTR_BYTES

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation.

        Invariants: contiguous layout inside a function, branch targets
        resolve to real instructions, behaviours/memgens referenced by
        instructions exist, call graph edges go to function entries.
        """
        for function in self.functions:
            for prev_bid, next_bid in zip(function.block_ids,
                                          function.block_ids[1:]):
                prev = self.blocks[prev_bid]
                nxt = self.blocks[next_bid]
                if prev.end_addr != nxt.start_addr:
                    raise ValueError(
                        f"blocks {prev_bid}->{next_bid} not contiguous")
        entry_addrs = {self.blocks[f.entry_bid].start_addr
                       for f in self.functions}
        for instr in self._instr_map.values():
            if instr.kind in (BranchKind.COND, BranchKind.JUMP,
                              BranchKind.CALL):
                if self.instr_at(instr.target_addr) is None:
                    raise ValueError(
                        f"branch at {instr.addr:#x} targets unmapped "
                        f"address {instr.target_addr:#x}")
            if instr.kind == BranchKind.CALL:
                if instr.target_addr not in entry_addrs:
                    raise ValueError(
                        f"call at {instr.addr:#x} does not target a "
                        f"function entry")
            if instr.kind in (BranchKind.COND, BranchKind.IND_JUMP):
                if not 0 <= instr.behavior < len(self.behaviors):
                    raise ValueError(
                        f"branch at {instr.addr:#x} has no behaviour")
            if instr.kind == BranchKind.IND_JUMP:
                behavior = self.behaviors[instr.behavior]
                for target in behavior.targets:
                    if self.instr_at(target) is None:
                        raise ValueError(
                            f"indirect at {instr.addr:#x} can target "
                            f"unmapped address {target:#x}")
            if instr.memgen >= 0 and instr.memgen >= len(self.memgens):
                raise ValueError(
                    f"instruction at {instr.addr:#x} references missing "
                    f"address generator {instr.memgen}")
