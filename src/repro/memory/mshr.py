"""Miss status holding registers for the data side.

A load that misses allocates an entry keyed by (ASID, line); a second
load to the same in-flight line *coalesces* (no new entry, same ready
cycle).  When the file is full, the load cannot issue this cycle and
replays — back-pressure that matters when memory-bound threads pile up
dependent misses.  Behind the hierarchy's atomic fills, coalescing is
rare: a second load usually hits the already-installed line in L1D
(DESIGN.md §4).
"""

from __future__ import annotations


class MshrFile:
    """Fixed-capacity file of outstanding line misses."""

    __slots__ = ("capacity", "_entries", "_earliest", "coalesced",
                 "rejections")

    _NEVER = 1 << 62                # sentinel: no entry due

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise ValueError(f"MSHR capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[tuple[int, int], int] = {}
        self._earliest = self._NEVER
        self.coalesced = 0
        self.rejections = 0

    def _prune(self, cycle: int) -> None:
        # `_earliest` tracks min(ready) over in-flight entries, so the
        # common nothing-due call is one integer compare.
        if cycle < self._earliest:
            return
        entries = self._entries
        done = [key for key, ready in entries.items() if ready <= cycle]
        for key in done:
            del entries[key]
        self._earliest = min(entries.values(), default=self._NEVER)

    def request(self, asid: int, line: int, cycle: int,
                ready_cycle: int) -> int | None:
        """Track a miss; returns its ready cycle or None when full.

        Coalesces with an in-flight miss on the same line, keeping the
        earlier fill time.
        """
        self._prune(cycle)
        key = (asid, line)
        existing = self._entries.get(key)
        if existing is not None:
            self.coalesced += 1
            return existing
        if len(self._entries) >= self.capacity:
            self.rejections += 1
            return None
        self._entries[key] = ready_cycle
        if ready_cycle < self._earliest:
            self._earliest = ready_cycle
        return ready_cycle

    def outstanding(self, cycle: int) -> int:
        """Number of in-flight misses as of ``cycle``."""
        self._prune(cycle)
        return len(self._entries)

    def reset_stats(self) -> None:
        """Zero coalesce/rejection counters; in-flight misses untouched."""
        self.coalesced = 0
        self.rejections = 0
