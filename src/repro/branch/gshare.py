"""gshare direction predictor (McFarling, 1993).

Table 3 of the paper: 64K-entry PHT, 16 bits of global history; the
constructor defaults to both.  The simulator uses 6 history bits
(``SimConfig.gshare_history``, DESIGN.md §3).  The index XORs the branch
address with the (per-thread) global history; the table itself is
shared between threads.
"""

from __future__ import annotations

from repro.branch.common import SaturatingCounterTable, is_power_of_two


class GShare:
    """gshare: XOR-indexed table of 2-bit counters."""

    __slots__ = ("entries", "history_bits", "_index_mask", "_table",
                 "lookups", "updates", "correct")

    def __init__(self, entries: int = 64 * 1024,
                 history_bits: int = 16) -> None:
        if not is_power_of_two(entries):
            raise ValueError(f"entries must be a power of two, got {entries}")
        self.entries = entries
        self.history_bits = history_bits
        self._index_mask = entries - 1
        self._table = SaturatingCounterTable(entries)
        self.lookups = 0
        self.updates = 0
        self.correct = 0

    def _index(self, pc: int, history: int) -> int:
        return ((pc >> 2) ^ history) & self._index_mask

    def predict(self, pc: int, history: int) -> bool:
        """Predict the direction of the branch at ``pc``."""
        self.lookups += 1
        return self._table.predict(self._index(pc, history))

    def update(self, pc: int, history: int, taken: bool,
               predicted: bool | None = None) -> None:
        """Train with the resolved outcome.

        ``predicted`` (if given) feeds the accuracy counters without a
        second table probe.
        """
        if predicted is not None:
            self.updates += 1
            if predicted == taken:
                self.correct += 1
        self._table.update(self._index(pc, history), taken)

    @property
    def accuracy(self) -> float:
        """Fraction of *resolved* predictions that were correct.

        Only resolved (correct-path) branches count: speculative lookups
        on wrong paths never learn their outcome, in simulation as in
        hardware.
        """
        return self.correct / self.updates if self.updates else 0.0

    def reset_stats(self) -> None:
        """Zero the accuracy counters; the trained table is untouched."""
        self.lookups = 0
        self.updates = 0
        self.correct = 0
