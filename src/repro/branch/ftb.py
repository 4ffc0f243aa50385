"""Fetch Target Buffer (Reinman, Calder & Austin, 2001).

Table 3 of the paper: 2K entries, 4-way set associative.  Unlike a BTB,
the FTB stores *fetch blocks*: an entry is keyed by the block's start
address and records the distance to the terminating branch — the first
branch after the start that has ever been observed taken.  Conditionals
that never take are not allocated and therefore sit *inside* fetch
blocks, which is how the FTB delivers blocks larger than a basic block
with a single prediction per cycle.

Allocation and repair happen at branch resolution:

* a taken branch (or an ever-taken conditional) resolving inside a block
  allocates/overwrites the entry for that block's start address;
* an embedded branch turning out taken shrinks the block (the new entry
  simply ends earlier).
"""

from __future__ import annotations

from repro.branch.common import SetAssocTable
from repro.isa.instruction import BranchKind

MAX_FTB_BLOCK = 16
"""Maximum fetch-block length in instructions (FTB length field width)."""


class FTBEntry:
    """A fetch block: ``length`` instructions ending in a branch."""

    __slots__ = ("length", "target", "kind")

    def __init__(self, length: int, target: int, kind: BranchKind) -> None:
        self.length = length
        self.target = target
        self.kind = kind


class FTB:
    """Set-associative fetch target buffer.

    ASID-tagged for the same reason as the BTB: the threads' virtual
    code ranges overlap, and untagged entries would leak fetch blocks
    between address spaces.  Capacity is shared.
    """

    __slots__ = ("_table",)

    def __init__(self, entries: int, assoc: int) -> None:
        self._table = SetAssocTable(entries, assoc)

    @staticmethod
    def _key(start: int, asid: int) -> tuple[int, int]:
        return ((start >> 2) ^ (asid * 0x9E37), start * 64 + asid)

    def lookup(self, start: int, asid: int = 0) -> FTBEntry | None:
        """Return the fetch block starting at ``start``, if cached.

        Reference implementation: the gskew engine's compiled
        ``predict`` inlines this probe (``gskew_ftb._build_paths``).
        """
        index, key = self._key(start, asid)
        return self._table.lookup(index, key)

    def insert(self, start: int, length: int, target: int,
               kind: BranchKind, asid: int = 0) -> None:
        """Allocate/overwrite the fetch block starting at ``start``.

        ``length`` counts instructions up to and including the
        terminating branch and is clamped to the FTB's length field.
        """
        if length < 1:
            raise ValueError(f"fetch block length must be >= 1, got {length}")
        length = min(length, MAX_FTB_BLOCK)
        index, key = self._key(start, asid)
        self._table.insert(index, key, FTBEntry(length, target, kind))

    @property
    def hits(self) -> int:
        """Number of lookups that hit (stats)."""
        return self._table.hits

    @property
    def misses(self) -> int:
        """Number of lookups that missed (stats)."""
        return self._table.misses

    def reset_stats(self) -> None:
        """Zero hit/miss counters; stored fetch blocks are untouched."""
        self._table.reset_stats()
