"""Stream predictor (Ramirez, Santana, Larriba-Pey & Valero, 2002).

Table 3 of the paper: cascaded tables of 1K and 4K entries, both 4-way,
with DOLC path index ``16-2-4-10``.

An *instruction stream* runs from the target of a taken branch to the
next taken branch — it may span many basic blocks and embedded
not-taken conditionals.  The predictor maps a stream's start address
(plus path history in the second level) to ``(length, target, kind)``:
everything the fetch unit needs to drive sequential I-cache accesses for
several cycles from a single prediction, which is what lets a 1.16
policy keep an 8-wide SMT core fed from one thread.

Cascade: the first level is indexed and tagged by the start address
alone; the second level is indexed by a DOLC hash of the path leading to
the stream, so path-correlated streams (different lengths/targets per
call site) get their own entries.  Lookups prefer a second-level hit.
"""

from __future__ import annotations

from repro.branch.common import SetAssocTable
from repro.isa.instruction import BranchKind
from repro.util.bits import fold_bits

MAX_STREAM_LENGTH = 64
"""Maximum predicted stream length in instructions (length field width)."""


class StreamEntry:
    """Prediction for one stream: length, next start, terminator kind.

    ``confidence`` is a 2-bit hysteresis counter: a stream whose length
    or target fluctuates occasionally (e.g. the once-per-trip loop exit)
    does not lose its dominant prediction to a single divergent
    observation.
    """

    __slots__ = ("length", "target", "kind", "confidence")

    def __init__(self, length: int, target: int, kind: BranchKind,
                 confidence: int = 1) -> None:
        self.length = length
        self.target = target
        self.kind = kind
        self.confidence = confidence


class DolcHistory:
    """DOLC path history: Depth-OLder-Last-Current index hashing.

    Keeps a register of the last ``depth`` stream start addresses,
    folded incrementally: ``older`` bits from each old address, ``last``
    bits from the most recent one, and ``current`` bits from the lookup
    address are concatenated and XOR-folded to the table's index width.
    Snapshot/restore is O(1) — the whole state is two integers.
    """

    __slots__ = ("depth", "older_bits", "last_bits", "current_bits",
                 "_path", "_path_mask", "_last")

    def __init__(self, depth: int = 16, older_bits: int = 2,
                 last_bits: int = 4, current_bits: int = 10) -> None:
        if min(depth, older_bits, last_bits, current_bits) < 1:
            raise ValueError("all DOLC parameters must be >= 1")
        self.depth = depth
        self.older_bits = older_bits
        self.last_bits = last_bits
        self.current_bits = current_bits
        self._path = 0
        self._path_mask = (1 << (depth * older_bits)) - 1
        self._last = 0

    @staticmethod
    def _addr_bits(address: int, bits: int) -> int:
        # Mix higher slices in before masking: stream starts are often
        # aligned, which would otherwise zero the extracted field.
        return ((address >> 2) ^ (address >> 7) ^ (address >> 13)) \
            & ((1 << bits) - 1)

    def push(self, address: int) -> None:
        """Record that a stream starting at ``address`` was predicted."""
        old_bits = self._addr_bits(self._last, self.older_bits)
        self._path = ((self._path << self.older_bits) | old_bits) \
            & self._path_mask
        self._last = address

    def index(self, current: int, table_bits: int) -> int:
        """Hash (path, last, current) down to a ``table_bits`` index."""
        acc = self._path
        acc = (acc << self.last_bits) | \
            self._addr_bits(self._last, self.last_bits)
        acc = (acc << self.current_bits) | \
            self._addr_bits(current, self.current_bits)
        return fold_bits(acc, table_bits)

    def snapshot(self) -> tuple[int, int]:
        """Checkpoint for squash repair."""
        return (self._path, self._last)

    def restore(self, snapshot: tuple[int, int]) -> None:
        """Roll back to a checkpoint."""
        self._path, self._last = snapshot


class StreamPredictor:
    """Cascaded stream predictor: address-indexed L1, path-indexed L2."""

    __slots__ = ("_first", "_second", "_second_index_bits", "lookups",
                 "first_hits", "second_hits")

    def __init__(self, first_entries: int = 1024,
                 second_entries: int = 4096, assoc: int = 4) -> None:
        self._first = SetAssocTable(first_entries, assoc)
        self._second = SetAssocTable(second_entries, assoc)
        self._second_index_bits = (second_entries // assoc).bit_length() - 1
        self.lookups = 0
        self.first_hits = 0
        self.second_hits = 0

    def lookup(self, start: int, history: DolcHistory,
               asid: int = 0) -> StreamEntry | None:
        """Predict the stream starting at ``start`` (None = cold miss).

        ASID-tagged like the BTB/FTB: the threads' virtual code ranges
        overlap, and stream entries must not leak between address
        spaces.  Table capacity remains shared.

        Reference implementation: the stream engine's compiled
        ``predict`` inlines this lookup (``stream_engine._build_paths``).
        """
        self.lookups += 1
        key = start * 64 + asid
        asid_mix = asid * 0x9E37
        entry = self._second.lookup(
            history.index(start, self._second_index_bits) ^ asid_mix, key)
        if entry is not None:
            self.second_hits += 1
            return entry
        entry = self._first.lookup((start >> 2) ^ asid_mix, key)
        if entry is not None:
            self.first_hits += 1
        return entry

    def reset_stats(self) -> None:
        """Zero lookup/hit counters (both levels); entries untouched."""
        self.lookups = 0
        self.first_hits = 0
        self.second_hits = 0
        self._first.reset_stats()
        self._second.reset_stats()

    def update(self, start: int, length: int, target: int,
               kind: BranchKind, history: DolcHistory,
               asid: int = 0) -> None:
        """Train both levels with a completed stream.

        ``history`` must reflect the path *before* the stream started
        (the trainer keeps its own non-speculative DOLC register).
        """
        if length < 1:
            raise ValueError(f"stream length must be >= 1, got {length}")
        length = min(length, MAX_STREAM_LENGTH)
        key = start * 64 + asid
        first_index = (start >> 2) ^ (asid * 0x9E37)
        path_index = history.index(start, self._second_index_bits) \
            ^ (asid * 0x9E37)
        for table, index in ((self._first, first_index),
                             (self._second, path_index)):
            entry = table.lookup(index, key)
            if entry is None:
                table.insert(index, key, StreamEntry(length, target, kind))
            elif entry.length == length and entry.target == target:
                entry.confidence = min(entry.confidence + 1, 3)
            elif entry.confidence > 0:
                entry.confidence -= 1
            else:
                table.insert(index, key,
                             StreamEntry(length, target, kind))
