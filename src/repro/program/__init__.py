"""Synthetic benchmark programs.

The paper evaluates on Alpha SPECint2000 traces, which we do not have.
This package builds the closest synthetic equivalent: per-benchmark
control-flow graphs whose *dynamic* properties match what the paper's
mechanisms are sensitive to — Table 1's average basic-block size, branch
predictability, instruction-stream length, code footprint, data working
set and dependence density (see DESIGN.md, "Substitutions").

Every branch outcome and memory address is a pure deterministic function
of ``(salt, occurrence index)``; the generated program is therefore a
fully reproducible stand-in for a trace plus a basic-block dictionary.
"""

from repro.program.behavior import (
    BiasedBehavior,
    BranchBehavior,
    IndirectBehavior,
    LoopBehavior,
    PatternBehavior,
)
from repro.program.blocks import Function, Program, StaticBasicBlock
from repro.program.generator import generate_program, program_for
from repro.program.memgen import (
    AddressGenerator,
    ChaseGenerator,
    StackGenerator,
    StrideGenerator,
)
from repro.program.profiles import SPECINT2000, BenchmarkProfile

__all__ = [
    "AddressGenerator",
    "BenchmarkProfile",
    "BiasedBehavior",
    "BranchBehavior",
    "ChaseGenerator",
    "Function",
    "IndirectBehavior",
    "LoopBehavior",
    "PatternBehavior",
    "Program",
    "SPECINT2000",
    "StackGenerator",
    "StaticBasicBlock",
    "StrideGenerator",
    "generate_program",
    "program_for",
]
