"""Fetch engine interface and factory.

A fetch engine owns the (thread-shared) prediction structures and the
per-thread speculative front-end state, and exposes four operations to
the fetch unit:

* ``predict(tid, pc, width)`` — form one fetch request, speculatively
  updating the thread's history/RAS and checkpointing them into the
  request;
* ``resolve_branch(di)`` — train target/direction structures with a
  resolved correct-path branch (called from decode or execute);
* ``commit(di)`` — commit-side training (the stream builder lives here);
* ``repair(tid, di)`` — restore speculative state after the squash
  caused by correct-path branch ``di``.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from repro.isa.instruction import INSTR_BYTES, BranchKind, DynInst

if TYPE_CHECKING:
    from repro.core.config import SimConfig


class EngineKind(str, Enum):
    """The three fetch-engine designs the paper compares."""

    GSHARE_BTB = "gshare+BTB"
    GSKEW_FTB = "gskew+FTB"
    STREAM = "stream"


class FetchEngine:
    """Interface shared by the three fetch engines."""

    name = "abstract"

    commit_training = True
    """Whether :meth:`commit` does anything.  Engines whose commit hook
    is a no-op set this False so the core's commit loop can skip one
    call per committed instruction (the default is conservative)."""

    def predict(self, tid: int, pc: int, width: int):
        """Form one fetch request for thread ``tid`` starting at ``pc``.

        ``width`` bounds block formation for the single-branch engines
        (they cannot look past one prediction per cycle).
        """
        raise NotImplementedError

    def resolve_branch(self, di: DynInst) -> None:
        """Train with a resolved correct-path branch."""
        raise NotImplementedError

    def commit(self, di: DynInst) -> None:
        """Observe a committed instruction (commit-side training)."""
        raise NotImplementedError

    def repair(self, tid: int, di: DynInst) -> None:
        """Repair speculative state after ``di``'s squash."""
        raise NotImplementedError

    def stats(self) -> dict[str, float]:
        """Engine-specific statistics (prediction accuracy, hit rates)."""
        raise NotImplementedError

    def reset_stats(self) -> None:
        """Zero every statistic counter, keeping trained predictor state.

        Called at the warm-up/measurement boundary so that warm-up
        activity never leaks into measured results.
        """
        raise NotImplementedError


class GlobalHistoryEngine(FetchEngine):
    """A single-prediction engine over a per-thread GHR and RAS.

    The gshare+BTB and gskew+FTB engines share this recovery and train
    nothing at commit.  A subclass sets ``self.ghr`` and ``self.ras``,
    one :class:`~repro.branch.history.GlobalHistory` and one
    :class:`~repro.branch.ras.ReturnAddressStack` per thread.
    """

    commit_training = False     # commit() below is a no-op

    def commit(self, di: DynInst) -> None:
        """No commit-side training for this engine."""

    def repair(self, tid: int, di: DynInst) -> None:
        """Restore GHR and RAS, then re-apply ``di``'s own effect."""
        request = di.request
        if request is None:
            return
        ghr = self.ghr[tid]
        ras = self.ras[tid]
        if request.ghr_ckpt is not None:
            ghr.restore(request.ghr_ckpt)
        if di.static.kind == BranchKind.COND:
            ghr.push(di.actual_taken)
        if request.ras_ckpt is not None:
            ras.restore(request.ras_ckpt)
        if di.static.kind == BranchKind.CALL:
            ras.push(di.pc + INSTR_BYTES)
        elif di.static.kind == BranchKind.RET:
            ras.pop()


def make_engine(kind: EngineKind | str, n_threads: int,
                config: SimConfig) -> FetchEngine:
    """Instantiate a fetch engine by kind.

    Args:
        kind: An :class:`EngineKind` or its string value.
        n_threads: Hardware thread count (per-thread state replication).
        config: The machine's :class:`~repro.core.config.SimConfig`;
            the engine reads its predictor sizes from it.
    """
    # Imported here to avoid circular imports at package load.
    from repro.frontend.gshare_btb import GShareBtbEngine
    from repro.frontend.gskew_ftb import GSkewFtbEngine
    from repro.frontend.stream_engine import StreamFetchEngine

    kind = EngineKind(kind)
    if kind == EngineKind.GSHARE_BTB:
        return GShareBtbEngine(n_threads, config)
    if kind == EngineKind.GSKEW_FTB:
        return GSkewFtbEngine(n_threads, config)
    return StreamFetchEngine(n_threads, config)
