"""Fetch requests: the unit of work flowing through an FTQ.

A request is one engine prediction: "fetch ``length`` instructions
starting at ``start_pc``; the last one is (predicted to be) a branch
going to ``term_target``" — plus the checkpoints needed to repair the
engine's speculative state if a squash lands inside the request.

A request can outlive several fetch cycles: the fetch stage consumes at
most one I-cache line per thread per cycle, so a long stream drains from
the FTQ head incrementally (``consumed`` tracks progress).
"""

from __future__ import annotations


class FetchRequest:
    """One prediction-stage output.

    Attributes:
        tid: Thread the request belongs to.
        start_pc: Address of the first instruction.
        length: Planned number of instructions (>= 1).
        next_pc: Predicted address of the *following* request.
        term_is_branch: True if the terminator carries an engine
            prediction (False for sequential/fallback requests).
        term_taken / term_target: The terminator prediction.
        ghr_ckpt: Engine global-history snapshot taken before this
            request's prediction (None for engines without a GHR).
        ras_ckpt: RAS (top, value) snapshot.
        dolc_ckpt: Stream-path-history snapshot (stream engine only).
        consumed: Instructions already materialised.
    """

    __slots__ = ("tid", "start_pc", "length", "next_pc",
                 "term_is_branch", "term_taken", "term_target",
                 "ghr_ckpt", "ras_ckpt", "dolc_ckpt", "consumed")

    def __init__(self, tid: int, start_pc: int, length: int, next_pc: int,
                 term_is_branch: bool = False, term_taken: bool = False,
                 term_target: int = 0, ghr_ckpt: int | None = None,
                 ras_ckpt: tuple[int, int] | None = None,
                 dolc_ckpt: tuple[int, int] | None = None) -> None:
        if length < 1:
            raise ValueError(f"fetch request length must be >= 1, "
                             f"got {length}")
        self.tid = tid
        self.start_pc = start_pc
        self.length = length
        self.next_pc = next_pc
        self.term_is_branch = term_is_branch
        self.term_taken = term_taken
        self.term_target = term_target
        self.ghr_ckpt = ghr_ckpt
        self.ras_ckpt = ras_ckpt
        self.dolc_ckpt = dolc_ckpt
        self.consumed = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FetchRequest(t{self.tid} {self.start_pc:#x}+{self.length} "
                f"-> {self.next_pc:#x}, done {self.consumed})")
