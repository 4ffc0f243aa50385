"""gskew / e-gskew direction predictor (Michaud, Seznec & Uhlig, 1997).

Table 3 of the paper: three 32K-entry banks, 15 bits of history.  The
simulator uses 5 history bits (``SimConfig.gskew_history``, DESIGN.md
§3).  Each bank is indexed by a different skewing function of
(address, history), and a majority vote of the three counters yields
the prediction; the skewed indices decorrelate conflict aliasing so
that a branch that aliases destructively in one bank is usually
out-voted by the other two.

Update follows the *partial update* policy of the e-gskew paper: on a
correct prediction only the agreeing banks are strengthened; on a
misprediction all three banks are trained toward the outcome.
"""

from __future__ import annotations

from repro.branch.common import SaturatingCounterTable, is_power_of_two

# Distinct odd multipliers per bank decorrelate the indices (stand-ins
# for the H / H^-1 skewing matrices of the original hardware design).
_PC_MULT = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D)
_HIST_MULT = (0x27D4EB2F, 0x165667B1, 0x9E3779B1)


class GSkew:
    """Three-bank majority-vote predictor with partial update."""

    __slots__ = ("bank_entries", "history_bits", "_mask", "_banks",
                 "lookups", "updates", "correct")

    def __init__(self, bank_entries: int, history_bits: int) -> None:
        if not is_power_of_two(bank_entries):
            raise ValueError(
                f"bank entries must be a power of two, got {bank_entries}")
        self.bank_entries = bank_entries
        self.history_bits = history_bits
        self._mask = bank_entries - 1
        self._banks = tuple(SaturatingCounterTable(bank_entries)
                            for _ in range(3))
        self.lookups = 0
        self.updates = 0
        self.correct = 0

    def _indices(self, pc: int, history: int) -> tuple[int, int, int]:
        word = pc >> 2
        return tuple(
            ((word * _PC_MULT[k]) ^ (history * _HIST_MULT[k])
             ^ (word >> 13)) & self._mask
            for k in range(3))

    def predict(self, pc: int, history: int) -> bool:
        """Majority vote of the three banks."""
        self.lookups += 1
        i0, i1, i2 = self._indices(pc, history)
        votes = (self._banks[0].predict(i0) + self._banks[1].predict(i1)
                 + self._banks[2].predict(i2))
        return votes >= 2

    def update(self, pc: int, history: int, taken: bool,
               predicted: bool | None = None) -> None:
        """Partial update: strengthen agreeing banks, retrain on a miss."""
        indices = self._indices(pc, history)
        votes = [self._banks[k].predict(indices[k]) for k in range(3)]
        majority = sum(votes) >= 2
        if predicted is not None:
            self.updates += 1
            if predicted == taken:
                self.correct += 1
        if majority == taken:
            for k in range(3):
                if votes[k] == taken:
                    self._banks[k].update(indices[k], taken)
        else:
            for k in range(3):
                self._banks[k].update(indices[k], taken)

    @property
    def accuracy(self) -> float:
        """Fraction of *resolved* predictions that were correct."""
        return self.correct / self.updates if self.updates else 0.0

    def reset_stats(self) -> None:
        """Zero the accuracy counters; the trained banks are untouched."""
        self.lookups = 0
        self.updates = 0
        self.correct = 0
