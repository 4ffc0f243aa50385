"""The decoupled fetch unit: prediction stage + fetch stage.

Implements Figures 1 and 3 of the paper:

* ``1.X`` — fine-grained, non-simultaneous sharing: one thread predicts
  and one thread fetches per cycle through a single-ported I-cache;
* ``2.X`` — simultaneous sharing: two predictions per cycle, two
  concurrent I-cache accesses with bank-conflict arbitration, and a
  merge of both threads' instructions into one fetch packet.

The fetch stage *materialises* instructions by walking the basic-block
dictionary along the predicted path.  The thread's architectural context
simultaneously tracks the correct path; the first disagreement marks the
materialised branch with ``diverges`` and everything younger as
wrong-path, to be squashed when that branch resolves (at decode for
misfetched direct jumps/calls, at execute otherwise).

Both stages run every cycle of every simulation, so they are compiled
as closures once per fetch unit (:meth:`FetchUnit._build_stages`):
per-thread structures (FTQ deques, occurrence-count dicts, basic-block
maps) are captured as free variables, candidate/bank lists are reusable
scratch buffers, thread ordering sorts in place
(:meth:`repro.frontend.policy.ICount.order`, for RR as for ICOUNT), and
the architectural walk of sequential non-branch instructions is inlined
(the :meth:`~repro.trace.context.ThreadContext.step` fast path) so the
common instruction costs no method calls at all.  Captured structures
are identity-stable — mutated in place, never rebound — and that
includes ``self.stats``, which :meth:`reset_stats` zeroes in place.  The
closures capture no ``self``, so a fetch unit is freed by reference
counting as soon as its machine is dropped.  The per-thread structures
are captured from the contexts when the unit is built, so a context
cannot be swapped afterwards: build the machine around the program
instead (:class:`repro.core.simulator.Simulator` accepts a
:class:`~repro.program.blocks.Program` wherever it takes a benchmark
name).
"""

from __future__ import annotations

from collections import deque
from collections.abc import MutableSequence, Sequence
from typing import TYPE_CHECKING

from repro.frontend.engine import FetchEngine
from repro.frontend.policy import ICount, PolicySpec
from repro.frontend.request import FetchRequest
from repro.isa.instruction import INSTR_BYTES, BranchKind, DynInst
from repro.memory.hierarchy import MemoryHierarchy
from repro.trace.context import ThreadContext

if TYPE_CHECKING:
    from repro.core.config import SimConfig

_DECODE_RESOLVABLE = (BranchKind.JUMP, BranchKind.CALL)


def drop_younger(buffer: MutableSequence[DynInst], tid: int,
                 seq: int) -> int:
    """Squash thread ``tid``'s entries younger than ``seq`` in ``buffer``.

    The one filter for the three in-order buffers (the fetch buffer and
    the decode and rename latches): it marks those entries ``squashed``
    and drops them, keeping the rest in order.  The compiled stages
    capture each buffer, so it is rebuilt in place, and only when
    something went.  Returns how many went, for ICOUNT.
    """
    kept = []
    for entry in buffer:
        if entry.tid == tid and entry.seq > seq:
            entry.squashed = True
        else:
            kept.append(entry)
    removed = len(buffer) - len(kept)
    if removed:
        buffer.clear()
        buffer.extend(kept)
    return removed


class FetchStats:
    """Counters the paper's fetch-side metrics are computed from."""

    __slots__ = ("fetch_cycles", "fetched_instructions", "predictions",
                 "bank_conflicts", "wrong_path_fetched",
                 "delivered_histogram")

    def __init__(self, max_width: int = 32) -> None:
        self.delivered_histogram = [0] * (max_width + 1)
        self.reset()

    def reset(self) -> None:
        """Zero every counter in place (the fetch stages hold this object)."""
        self.fetch_cycles = 0
        self.fetched_instructions = 0
        self.predictions = 0
        self.bank_conflicts = 0
        self.wrong_path_fetched = 0
        histogram = self.delivered_histogram
        histogram[:] = [0] * len(histogram)

    @property
    def ipfc(self) -> float:
        """Instructions per fetch cycle — the paper's fetch throughput."""
        if self.fetch_cycles == 0:
            return 0.0
        return self.fetched_instructions / self.fetch_cycles

    def delivered_at_least(self, n: int) -> float:
        """Fraction of fetch cycles delivering >= ``n`` instructions."""
        if self.fetch_cycles == 0:
            return 0.0
        count = sum(self.delivered_histogram[n:])
        return count / self.fetch_cycles


class FetchUnit:
    """Two-stage decoupled front-end shared by all hardware threads.

    The unit makes the ICOUNT list the core shares, and orders threads
    with :meth:`ICount.order` over that list for ICOUNT policies and
    over an all-zero list for RR.  It reads the FTQ depth, fetch-buffer
    size and line size from ``config``.  Each thread's Fetch Target Queue
    (Table 3: 4 entries per thread) is a plain deque of fetch requests.
    The prediction stage appends while it holds fewer than
    ``config.ftq_depth``, so it runs ahead of a thread blocked on an
    I-cache miss; the fetch stage drains the head, a multi-line request
    over several cycles; a squash clears it.

    ``predict_stage`` and ``fetch_stage`` are closures built by
    :meth:`_build_stages` (materialisation is inlined into the fetch
    stage); see the module docstring for the specialisation contract.
    """

    def __init__(self, engine: FetchEngine, spec: PolicySpec,
                 memory: MemoryHierarchy,
                 contexts: Sequence[ThreadContext],
                 config: SimConfig) -> None:
        if config.ftq_depth < 1:
            raise ValueError(
                f"FTQ depth must be >= 1, got {config.ftq_depth}")
        n = len(contexts)
        self.engine = engine
        self.spec = spec
        self.memory = memory
        self.contexts = contexts
        self.icounts = [0] * n
        self.ftqs: list[deque[FetchRequest]] = [deque() for _ in range(n)]
        self.next_pc = [ctx.program.entry_addr for ctx in contexts]
        self.blocked_until = [0] * n
        self.seq = [0] * n
        self.fetch_buffer: deque[DynInst] = deque()
        self.fetch_buffer_capacity = config.fetch_buffer
        self.line_instrs = config.line_bytes // INSTR_BYTES
        self.stats = FetchStats(max_width=max(spec.width,
                                              self.line_instrs))
        self._build_stages(config.ftq_depth)

    def reset_stats(self) -> None:
        """Zero the fetch counters; FTQ/buffer/PC state is untouched."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # the compiled stages
    # ------------------------------------------------------------------

    def _build_stages(self, ftq_depth: int) -> None:
        """Specialise the per-cycle stages for this fetch unit."""
        n_threads = len(self.contexts)
        contexts = self.contexts
        ftq_queues = self.ftqs
        next_pc = self.next_pc
        blocked_until = self.blocked_until
        seq_list = self.seq
        icounts = self.icounts
        fetch_buffer = self.fetch_buffer
        buffer_append = fetch_buffer.append
        capacity = self.fetch_buffer_capacity
        line_instrs = self.line_instrs
        line_mask = line_instrs - 1
        width = self.spec.width
        threads_per_cycle = self.spec.threads_per_cycle
        simultaneous = threads_per_cycle > 1
        policy_order = ICount(n_threads).order
        # RR is ICOUNT over equal counts: its rotation is the tie-break.
        priorities = icounts if self.spec.name == "ICOUNT" \
            else [0] * n_threads
        engine_predict = self.engine.predict
        ifetch = self.memory.ifetch
        bank_of = self.memory.l1i.bank_of
        # Per-thread architectural structures (identity-stable).
        instr_gets = [ctx.program._instr_map.get for ctx in contexts]
        counts_list = [ctx._counts for ctx in contexts]
        memgens_list = [ctx.program.memgens for ctx in contexts]
        behaviors_list = [ctx.program.behaviors for ctx in contexts]
        callstack_list = [ctx._call_stack for ctx in contexts]
        entry_list = [ctx.program.entry_addr for ctx in contexts]
        kind_cond = int(BranchKind.COND)
        kind_jump = int(BranchKind.JUMP)
        kind_call = int(BranchKind.CALL)
        kind_ret = int(BranchKind.RET)
        predict_scratch: list[int] = []
        fetch_scratch: list[int] = []
        banks_scratch: list[int] = []
        thread_range = range(n_threads)
        instr_bytes = INSTR_BYTES
        decode_resolvable = _DECODE_RESOLVABLE
        dyninst_new = DynInst.__new__
        dyninst = DynInst
        stats = self.stats

        def predict_stage(cycle: int) -> None:
            """Generate one fetch request per selected thread."""
            candidates = predict_scratch
            del candidates[:]
            for t in thread_range:
                if len(ftq_queues[t]) < ftq_depth:
                    candidates.append(t)
            num = len(candidates)
            if not num:
                return
            if num > 1:
                # A single candidate needs no ordering; skip the sort.
                policy_order(cycle, candidates, priorities)
            take = threads_per_cycle if threads_per_cycle < num else num
            for k in range(take):
                tid = candidates[k]
                request = engine_predict(tid, next_pc[tid], width)
                ftq_queues[tid].append(request)     # space checked above
                next_pc[tid] = request.next_pc
            stats.predictions += take

        def fetch_stage(cycle: int) -> None:
            """Drive I-cache accesses for the policy-selected threads."""
            buffer_space = capacity - len(fetch_buffer)
            if buffer_space <= 0:
                return                  # fetch stalled behind decode
            candidates = fetch_scratch
            del candidates[:]
            for t in thread_range:
                if ftq_queues[t] and blocked_until[t] <= cycle:
                    candidates.append(t)
            if not candidates:
                return
            if len(candidates) > 1:
                policy_order(cycle, candidates, priorities)
            width_left = width
            slots = threads_per_cycle
            banks_in_use = banks_scratch
            del banks_in_use[:]
            attempted = False
            delivered_total = 0
            for tid in candidates:
                if slots <= 0 or width_left <= 0 or buffer_space <= 0:
                    break
                slots -= 1
                queue = ftq_queues[tid]
                request = queue[0]
                consumed = request.consumed
                pc = request.start_pc + consumed * instr_bytes
                if simultaneous:
                    bank = bank_of(pc, tid)
                    if bank in banks_in_use:
                        stats.bank_conflicts += 1
                        continue        # slot wasted on the conflict
                    banks_in_use.append(bank)
                access = ifetch(tid, pc, cycle)
                attempted = True
                if not access.hit:
                    blocked_until[tid] = access.ready_cycle
                    continue
                to_line_end = line_instrs - ((pc >> 2) & line_mask)
                count = request.length - consumed
                if width_left < count:
                    count = width_left
                if buffer_space < count:
                    count = buffer_space
                if to_line_end < count:
                    count = to_line_end

                # ---- materialise up to `count` DynInsts ----
                # The architectural walk of correct-path non-branch
                # instructions — the overwhelmingly common case — is
                # the inlined fast path of ThreadContext.step plus
                # ThreadContext.data_address: bump the occurrence
                # count of memory instructions and advance the PC
                # sequentially.  Branches still go through ctx.step so
                # the walker's control-flow logic lives in one place.
                ctx = contexts[tid]
                instr_get = instr_gets[tid]
                counts = counts_list[tid]
                counts_get = counts.get
                memgens = memgens_list[tid]
                seq = seq_list[tid]
                diverged = ctx.diverged
                made = 0
                wrong_path = 0
                term_index = request.length - 1
                term_is_branch = request.term_is_branch
                for _ in range(count):
                    static = instr_get(pc)
                    if static is None:
                        # Wrong-path fetch ran past the program image;
                        # abandon the request (the squash redirects).
                        consumed = request.length
                        break
                    # DynInst.__init__ inlined (millions of instances
                    # per run) — keep in sync with the slot list there.
                    di = dyninst_new(dyninst)
                    di.tid = tid
                    di.seq = seq
                    di.static = static
                    di.op = static.op
                    di.on_correct_path = True
                    di.pred_taken = False
                    di.pred_target = 0
                    di.actual_taken = False
                    di.actual_target = 0
                    di.diverges = False
                    di.resolve_at_decode = False
                    di.mem_addr = 0
                    di.request = request
                    di.pending = 0
                    di.waiters = None
                    di.age = -1
                    di.issued = False
                    di.completed = False
                    di.squashed = False
                    seq += 1
                    kind = static.kind  # truthy exactly for branches
                    mg = static.memgen
                    bogus_terminator = False
                    if consumed == term_index and term_is_branch:
                        if kind:
                            di.pred_taken = request.term_taken
                            di.pred_target = request.term_target
                        elif request.term_taken and not diverged:
                            # Stale/aliased entry predicted a taken
                            # branch at a non-branch: the fetch path
                            # jumps to term_target but the
                            # architectural path falls through.
                            # Detected as soon as it is decoded.
                            bogus_terminator = True
                    if diverged:
                        di.on_correct_path = False
                        wrong_path += 1
                        if kind:
                            # Wrong-path branches resolve as predicted
                            # (standard trace-driven practice).
                            di.actual_taken = di.pred_taken
                            di.actual_target = di.pred_target
                        if mg >= 0:
                            # data_address(wrong path): peek the
                            # occurrence index without consuming it.
                            di.mem_addr = memgens[mg].address(
                                counts_get(static.sid, 0))
                    elif kind:
                        # ThreadContext.step inlined for branches (the
                        # method remains the reference walker used by
                        # the trace tools): occurrence bump, outcome
                        # evaluation, call-stack upkeep, PC update.
                        sid = static.sid
                        n_occ = counts_get(sid, 0)
                        counts[sid] = n_occ + 1
                        fall = pc + instr_bytes
                        if kind == kind_cond:
                            taken = behaviors_list[tid][
                                static.behavior].taken(n_occ)
                            target = static.target_addr
                        elif kind == kind_jump:
                            taken = True
                            target = static.target_addr
                        elif kind == kind_call:
                            taken = True
                            target = static.target_addr
                            callstack_list[tid].append(fall)
                        elif kind == kind_ret:
                            taken = True
                            stack = callstack_list[tid]
                            # Underflow cannot happen on a validated
                            # program's correct path; restart at entry
                            # to keep the walker total.
                            target = stack.pop() if stack \
                                else entry_list[tid]
                        else:           # IND_JUMP
                            taken = True
                            target = behaviors_list[tid][
                                static.behavior].target(n_occ)
                        ctx.pc = target if taken else fall
                        di.actual_taken = taken
                        di.actual_target = target
                        pred_next = di.pred_target if di.pred_taken \
                            else fall
                        true_next = target if taken else fall
                        if pred_next != true_next:
                            di.diverges = True
                            di.resolve_at_decode = (
                                kind in decode_resolvable
                                and not di.pred_taken)
                            diverged = True
                            ctx.diverged = True     # mark_diverged
                        if mg >= 0:
                            # data_address(correct path): step already
                            # bumped, so this instance is `n_occ`.
                            di.mem_addr = memgens[mg].address(n_occ)
                    else:
                        # step() fast path: occurrence bump +
                        # sequential PC advance.
                        if mg >= 0:
                            sid = static.sid
                            occ = counts_get(sid, 0)
                            counts[sid] = occ + 1
                            # data_address(correct path): the instance
                            # that just executed is occurrence `occ`.
                            di.mem_addr = memgens[mg].address(occ)
                        ctx.pc = pc + instr_bytes
                        if bogus_terminator:
                            di.diverges = True
                            di.resolve_at_decode = True
                            diverged = True
                            ctx.diverged = True     # mark_diverged
                    buffer_append(di)
                    consumed += 1
                    pc += instr_bytes
                    made += 1
                request.consumed = consumed
                seq_list[tid] = seq
                icounts[tid] += made
                if wrong_path:
                    stats.wrong_path_fetched += wrong_path

                width_left -= made
                buffer_space -= made
                delivered_total += made
                if consumed == request.length:
                    queue.popleft()
            if attempted:
                stats.fetch_cycles += 1
                stats.fetched_instructions += delivered_total
                stats.delivered_histogram[delivered_total] += 1

        self.predict_stage = predict_stage
        self.fetch_stage = fetch_stage

    # ------------------------------------------------------------------
    # squash recovery (cold path)
    # ------------------------------------------------------------------

    def redirect(self, tid: int, resume_pc: int, di: DynInst) -> None:
        """Restart thread ``tid`` at the architectural PC after a squash.

        Clears the FTQ and any fetch-buffer remnants of the thread,
        repairs the engine's speculative state from ``di``'s request
        checkpoints and unblocks a (wrong-path) I-cache miss.
        """
        self.ftqs[tid].clear()
        self.next_pc[tid] = resume_pc
        self.blocked_until[tid] = 0
        self.engine.repair(tid, di)
        self.icounts[tid] -= drop_younger(self.fetch_buffer, tid, di.seq)
