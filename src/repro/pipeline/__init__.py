"""The out-of-order SMT execution core.

A 9-stage pipeline (predict, fetch, decode, rename, dispatch, issue,
execute, writeback, commit) with the Table 3 resource set: shared
32-entry instruction queues (int / load-store / fp), a shared 256-entry
reorder buffer, 384 + 384 physical registers, and 6 int / 4 load-store /
3 fp functional units behind an 8-wide decode/rename/commit path.

Everything between decode and dispatch is a shared in-order pipe; IQ
entries free at issue while registers and ROB entries free at commit.
That asymmetry is what lets one memory-bound thread clog the machine —
the emergent effect behind the paper's Figure 7 (fetching from a second,
low-quality thread can *reduce* total commit throughput).
"""

from repro.pipeline.core import SmtCore
from repro.pipeline.resources import (
    InstructionQueues,
    PhysicalRegisters,
    ReorderBuffer,
)

__all__ = [
    "InstructionQueues",
    "PhysicalRegisters",
    "ReorderBuffer",
    "SmtCore",
]
