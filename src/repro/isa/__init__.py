"""Instruction-set model shared by the front-end and the execution core.

The model is deliberately architecture-neutral: a RISC-style ISA with
4-byte instructions, 32 integer and 32 floating-point architectural
registers, and explicit branch kinds.  It captures exactly what the
paper's mechanisms are sensitive to — instruction class mix, register
dependences, branch kinds and memory references — and nothing else.
"""

from repro.isa.instruction import (
    INSTR_BYTES,
    BranchKind,
    DynInst,
    InstrClass,
    StaticInstruction,
)

__all__ = [
    "INSTR_BYTES",
    "BranchKind",
    "DynInst",
    "InstrClass",
    "StaticInstruction",
]
