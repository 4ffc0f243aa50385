"""Return address stack with top-of-stack repair.

Table 3 of the paper: 64 entries, replicated per thread.  Pushes and
pops happen speculatively as the fetch engine predicts calls and
returns; each fetch request checkpoints ``(top index, top value)`` so a
squash can repair the dominant corruption case (the classic TOS-repair
scheme — deeper corruption from multiple in-flight call/return pairs is
accepted, as in real hardware).
"""

from __future__ import annotations


class ReturnAddressStack:
    """Circular return-address stack."""

    __slots__ = ("size", "_stack", "_top")

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"RAS needs at least one entry, got {size}")
        self.size = size
        self._stack = [0] * size
        self._top = 0

    def push(self, return_addr: int) -> None:
        """Push the return address of a predicted call."""
        self._top = (self._top + 1) % self.size
        self._stack[self._top] = return_addr

    def pop(self) -> int:
        """Pop the predicted target of a return."""
        value = self._stack[self._top]
        self._top = (self._top - 1) % self.size
        return value

    def peek(self) -> int:
        """Current top value without popping."""
        return self._stack[self._top]

    def snapshot(self) -> tuple[int, int]:
        """Checkpoint ``(top index, top value)`` for later repair."""
        return (self._top, self._stack[self._top])

    def restore(self, snapshot: tuple[int, int]) -> None:
        """Repair the stack from a checkpoint after a squash."""
        top, value = snapshot
        self._top = top % self.size
        self._stack[self._top] = value
