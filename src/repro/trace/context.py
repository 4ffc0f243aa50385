"""Per-thread architectural state.

The context is the authority on the *correct* path.  The front-end calls
:meth:`ThreadContext.step` for every instruction it materialises while
the thread is on the correct path; the first mismatch between prediction
and outcome marks the context diverged.  While diverged, nothing is
stepped — branch behaviours and address generators are pure functions,
so wrong-path fetch has no architectural side effects, and recovery is
simply clearing the flag (the PC already points at the architectural
continuation).
"""

from __future__ import annotations

from repro.isa.instruction import INSTR_BYTES, BranchKind, \
    StaticInstruction
from repro.program.blocks import Program


class WalkError(RuntimeError):
    """Raised when correct-path bookkeeping is violated (a simulator bug)."""


class ThreadContext:
    """Architectural state of one hardware thread.

    Attributes:
        program: The benchmark this thread executes.
        tid: Hardware thread id.
        pc: Next correct-path instruction address.
        diverged: True while fetch runs down a wrong path; ``pc`` then
            holds the architectural resume address.
    """

    __slots__ = ("program", "tid", "pc", "diverged", "_call_stack",
                 "_counts")

    def __init__(self, program: Program, tid: int = 0) -> None:
        self.program = program
        self.tid = tid
        self.pc = program.entry_addr
        self.diverged = False
        self._call_stack: list[int] = []
        self._counts: dict[int, int] = {}

    @property
    def call_depth(self) -> int:
        """Current architectural call-stack depth."""
        return len(self._call_stack)

    # NOTE: repro.trace.walker.dynamic_stats inlines the branch cases
    # of this method — keep the two in sync.
    def step(self, static: StaticInstruction) -> tuple[bool, int]:
        """Execute ``static`` architecturally and advance the context.

        Must only be called while on the correct path, with ``static``
        being the instruction at the current ``pc``.

        Returns:
            ``(taken, target)`` — the architectural branch outcome;
            ``(False, 0)`` for non-branches.

        Raises:
            WalkError: If called while diverged or at the wrong address.
        """
        if self.diverged:
            raise WalkError("step() while diverged")
        if static.addr != self.pc:
            raise WalkError(
                f"step() at {static.addr:#x} but architectural pc is "
                f"{self.pc:#x}")

        kind = static.kind
        if kind == BranchKind.NOT_BRANCH:
            if static.memgen >= 0:
                self._bump(static.sid)
            self.pc = static.addr + INSTR_BYTES
            return False, 0

        n = self._bump(static.sid)
        fall = static.addr + INSTR_BYTES
        if kind == BranchKind.COND:
            taken = self.program.behaviors[static.behavior].taken(n)
            target = static.target_addr
        elif kind == BranchKind.JUMP:
            taken, target = True, static.target_addr
        elif kind == BranchKind.CALL:
            taken, target = True, static.target_addr
            self._call_stack.append(fall)
        elif kind == BranchKind.RET:
            taken = True
            if self._call_stack:
                target = self._call_stack.pop()
            else:
                # Underflow cannot happen on a validated program's correct
                # path, but keep the walker total: restart at the entry.
                target = self.program.entry_addr
        elif kind == BranchKind.IND_JUMP:
            taken = True
            target = self.program.behaviors[static.behavior].target(n)
        else:  # pragma: no cover - enum is closed
            raise WalkError(f"unhandled branch kind {kind!r}")

        self.pc = target if taken else fall
        return taken, target

    def data_address(self, static: StaticInstruction,
                     correct_path: bool) -> int:
        """Effective address for a load/store instance.

        On the correct path the occurrence was already counted by
        :meth:`step`; wrong-path instances peek at the next occurrence
        index without consuming it, so speculation cannot disturb the
        architectural address stream.
        """
        if static.memgen < 0:
            raise WalkError(f"instruction at {static.addr:#x} has no "
                            f"address generator")
        n = self._counts.get(static.sid, 0)
        if correct_path:
            # step() already bumped: the instance that just executed is
            # occurrence n - 1.
            n -= 1
        return self.program.memgens[static.memgen].address(max(n, 0))

    def mark_diverged(self) -> None:
        """Flag that fetch has left the correct path.

        ``pc`` keeps the architectural resume address (already advanced
        past the diverging branch by :meth:`step`).
        """
        self.diverged = True

    def recover(self) -> int:
        """Recover from a squash; returns the architectural resume PC."""
        self.diverged = False
        return self.pc

    def _bump(self, sid: int) -> int:
        n = self._counts.get(sid, 0)
        self._counts[sid] = n + 1
        return n
