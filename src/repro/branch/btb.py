"""Branch Target Buffer (Lee & Smith, 1984).

Table 3 of the paper: 2K entries, 4-way set associative.  The BTB is the
*block-terminating* structure of the conventional fetch engine: every
resolved branch (taken or not) is inserted, so a fetch block ends at the
first BTB hit — which limits gshare+BTB fetch to roughly one basic block
per prediction, exactly the limitation the paper's Section 3.1 measures.
"""

from __future__ import annotations

from repro.branch.common import SetAssocTable
from repro.isa.instruction import BranchKind


class BTBEntry:
    """Target information for one branch instruction."""

    __slots__ = ("target", "kind")

    def __init__(self, target: int, kind: BranchKind) -> None:
        self.target = target
        self.kind = kind


class BTB:
    """Set-associative branch target buffer storing *all* seen branches.

    Entries are tagged with the thread's address-space id: threads run
    distinct programs whose (virtual) code ranges overlap, so an
    untagged BTB would systematically hand one thread another thread's
    targets.  Capacity is still shared — threads evict each other.

    ``_keys`` is the *presence set*: the tags of every stored entry,
    maintained by :meth:`insert`.  A tag ``pc * 64 + asid`` names one
    (pc, asid) pair and therefore one set (for ASIDs below 64, i.e.
    every hardware thread), so a tag absent from ``_keys`` misses
    without a set scan.
    """

    __slots__ = ("_table", "_keys")

    def __init__(self, entries: int, assoc: int) -> None:
        self._table = SetAssocTable(entries, assoc)
        self._keys: set[int] = set()

    @staticmethod
    def _key(pc: int, asid: int) -> tuple[int, int]:
        return ((pc >> 2) ^ (asid * 0x9E37), pc * 64 + asid)

    def lookup(self, pc: int, asid: int = 0) -> BTBEntry | None:
        """Return the entry for the branch at ``pc``, if cached.

        Reference implementation: the gshare engine's compiled
        ``predict`` closure inlines this probe for its block-formation
        scan (see ``gshare_btb._build_paths``).  The scan tests each
        address's tag against the presence set ``_keys`` and walks a
        set only on a hit, counting the misses in bulk; the counters
        and LRU order end up exactly as a sequence of these calls
        leaves them.
        """
        index, key = self._key(pc, asid)
        return self._table.lookup(index, key)

    def insert(self, pc: int, target: int, kind: BranchKind,
               asid: int = 0) -> None:
        """Insert or refresh the branch at ``pc`` (any direction).

        A new tag joins the presence set; when its set is full, the LRU
        tag that the insertion evicts leaves it.
        """
        index, key = self._key(pc, asid)
        table = self._table
        keys = self._keys
        if key not in keys:
            entries = table._sets[index & table._set_mask]
            if len(entries) >= table.assoc:
                keys.discard(entries[-1][0])
            keys.add(key)
        table.insert(index, key, BTBEntry(target, kind))

    @property
    def hits(self) -> int:
        """Number of lookups that hit (stats)."""
        return self._table.hits

    @property
    def misses(self) -> int:
        """Number of lookups that missed (stats)."""
        return self._table.misses

    def reset_stats(self) -> None:
        """Zero hit/miss counters; stored targets are untouched."""
        self._table.reset_stats()
