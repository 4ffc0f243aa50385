"""Correct-path trace iteration and workload characterisation.

Independent of any microarchitecture: these helpers replay the
architectural path of a program, which is how the synthetic workloads
are validated against the paper's Table 1 (dynamic basic-block size) and
how stream-length statistics — the quantity behind the stream fetch
engine's advantage — are measured.

:func:`walk` steps one instruction at a time and is the reference.
:func:`dynamic_stats` only needs counts, so it steps whole blocks: a
block is entered only at its start and left only through its final
instruction, so everything before that instruction runs unconditionally
and only the terminator is stepped, by an inlined copy of the branch
cases of :meth:`ThreadContext.step`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.instruction import INSTR_BYTES, BranchKind, InstrClass, \
    StaticInstruction
from repro.program.blocks import Program
from repro.trace.context import ThreadContext, WalkError


def walk(program: Program, max_instructions: int):
    """Yield ``(static, taken, target)`` along the correct path.

    The per-instruction reference for :func:`dynamic_stats`.

    Args:
        program: Program to execute.
        max_instructions: Number of dynamic instructions to produce.
    """
    ctx = ThreadContext(program)
    for _ in range(max_instructions):
        static = program.instr_at(ctx.pc)
        if static is None:  # pragma: no cover - validated programs are total
            raise RuntimeError(f"architectural pc {ctx.pc:#x} unmapped")
        taken, target = ctx.step(static)
        yield static, taken, target


@dataclass(frozen=True)
class StreamSummary:
    """Dynamic characterisation of a program's correct path.

    Attributes:
        instructions: Dynamic instructions measured.
        branches: Dynamic branch instances (any kind).
        taken_branches: Dynamic taken-branch instances.
        avg_block_size: Instructions per branch — the paper's Table 1
            "Avg BB size".
        avg_stream_length: Instructions per taken branch — the expected
            fetch-block length of a perfect stream front-end.
        taken_rate: Fraction of branches that are taken.
        load_frac / store_frac: Dynamic memory-instruction mix.
    """

    instructions: int
    branches: int
    taken_branches: int
    avg_block_size: float
    avg_stream_length: float
    taken_rate: float
    load_frac: float
    store_frac: float


_NOT_BRANCH = BranchKind.NOT_BRANCH
_COND = BranchKind.COND
_JUMP = BranchKind.JUMP
_CALL = BranchKind.CALL
_RET = BranchKind.RET
_IND_JUMP = BranchKind.IND_JUMP
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)


def _memory_counts(instrs: list[StaticInstruction]) -> tuple[int, int]:
    """``(loads, stores)`` among non-branch ``instrs``.

    Raises:
        WalkError: On a branch (control could leave mid-stride).
    """
    loads = stores = 0
    for static in instrs:
        if static.kind != _NOT_BRANCH:
            raise WalkError(f"branch at {static.addr:#x} is not the "
                            f"last instruction of its block")
        if static.op == _LOAD:
            loads += 1
        elif static.op == _STORE:
            stores += 1
    return loads, stores


def _block_table(program: Program) -> dict[int, tuple]:
    """Map each block's start address to the walk's per-block stride.

    Entries are ``(size, terminator, loads, stores, instrs)``;
    ``terminator`` is None for a block that falls through to the next.
    Built per walk so :class:`Program` carries no derived state.
    """
    table = {}
    for block in program.blocks:
        instrs = block.instrs
        terminator = block.terminator
        loads, stores = _memory_counts(
            instrs if terminator is None else instrs[:-1])
        table[block.start_addr] = (len(instrs), terminator, loads, stores,
                                   instrs)
    return table


def dynamic_stats(program: Program,
                  max_instructions: int = 200_000) -> StreamSummary:
    """Measure dynamic block/stream statistics along the correct path.

    Counts equal a per-instruction tally over :func:`walk`, but the
    budget is spent a block at a time and only terminators are stepped,
    by an inlined :meth:`ThreadContext.step` that counts occurrences
    only of the branches whose outcome reads them (conditional and
    indirect).

    Raises:
        WalkError: If control reaches an address that is not the start
            of a block.
    """
    table = _block_table(program)
    behaviors = program.behaviors
    entry_addr = program.entry_addr
    counts: dict[int, int] = {}
    call_stack: list[int] = []
    pc = entry_addr
    remaining = max_instructions
    branches = taken_branches = loads = stores = 0
    while remaining > 0:
        entry = table.get(pc)
        if entry is None:
            raise WalkError(f"architectural pc {pc:#x} is not the start "
                            f"of a block")
        size, terminator, block_loads, block_stores, instrs = entry
        if size > remaining:
            # The budget runs out before the block's terminator.
            block_loads, block_stores = _memory_counts(instrs[:remaining])
            loads += block_loads
            stores += block_stores
            break
        remaining -= size
        loads += block_loads
        stores += block_stores
        if terminator is None:
            pc += size * INSTR_BYTES
            continue
        branches += 1
        kind = terminator.kind
        if kind == _COND:
            sid = terminator.sid
            n = counts.get(sid, 0)
            counts[sid] = n + 1
            if behaviors[terminator.behavior].taken(n):
                taken_branches += 1
                pc = terminator.target_addr
            else:
                pc = terminator.addr + INSTR_BYTES
            continue
        taken_branches += 1
        if kind == _JUMP:
            pc = terminator.target_addr
        elif kind == _CALL:
            call_stack.append(terminator.addr + INSTR_BYTES)
            pc = terminator.target_addr
        elif kind == _RET:
            # As in ThreadContext.step, an underflow restarts at the
            # entry (never on a validated program's correct path).
            pc = call_stack.pop() if call_stack else entry_addr
        elif kind == _IND_JUMP:
            sid = terminator.sid
            n = counts.get(sid, 0)
            counts[sid] = n + 1
            pc = behaviors[terminator.behavior].target(n)
        else:  # pragma: no cover - enum is closed
            raise WalkError(f"unhandled branch kind {kind!r}")
    instructions = max(max_instructions, 0)
    return StreamSummary(
        instructions=instructions,
        branches=branches,
        taken_branches=taken_branches,
        avg_block_size=instructions / max(branches, 1),
        avg_stream_length=instructions / max(taken_branches, 1),
        taken_rate=taken_branches / max(branches, 1),
        load_frac=loads / max(instructions, 1),
        store_frac=stores / max(instructions, 1),
    )
