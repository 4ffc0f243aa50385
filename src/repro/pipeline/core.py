"""The SMT core: cycle loop tying front-end and back-end together.

Stage processing runs in reverse pipeline order each cycle (commit,
writeback, issue, dispatch, rename, decode, fetch, predict) so that
instructions advance one stage per cycle without same-cycle ripple.

Branch recovery:

* misfetched direct jumps/calls (``resolve_at_decode``) redirect the
  front-end as soon as they are decoded — a short bubble;
* everything else resolves at writeback: the core squashes all younger
  instructions of the thread from every structure, repairs the engine's
  speculative state and redirects fetch to the architectural PC.

ICOUNT accounting: a thread's count rises when instructions enter the
fetch buffer and falls at issue (or at squash for pre-issue
instructions) — instructions "in the decode, rename and dispatch stages"
plus queued ones, per Tullsen's definition as used by the paper.

Hot-path design (this loop dominates every experiment's wall-clock):

* **Event-wheel writeback** — in-flight completions live in a wheel
  of per-cycle buckets indexed by ``cycle & mask`` instead of a dict
  keyed by absolute cycle.  The issue stage inserts each instruction
  seq-ordered into its bucket (cheap: buckets hold a handful of
  entries), so writeback drains an already-sorted list with no
  per-cycle ``sort``.  The wheel spans the first power of two above
  the longest latency issue can charge: the slowest opclass, or a
  load's address generation plus the longest data access
  (:attr:`MemoryHierarchy.max_dread_latency`; a load that finds every
  MSHR busy replays instead of queuing).  Every completion therefore
  lands less than one span ahead, so each bucket holds exactly the
  completions due at the cycle that reads it.
* **Ready-count wakeup** — every dispatched instruction carries the
  count of its uncompleted producers (``DynInst.pending``); completing
  instructions decrement their registered ``waiters`` and hand newly
  ready ones to the issue queues' ready lists.  The issue stage
  therefore examines only ready instructions, never scanning waiting
  queue entries.
* **Closure-specialised stages** — :meth:`SmtCore._build_cycle_loop`
  compiles the per-cycle stages into closures once per core, capturing
  every *identity-stable* structure (queues, ready lists, the wheel,
  latches, register pools, bound memory/engine methods) as free
  variables.  The steady state then runs on local/closure loads with
  zero per-cycle rebinding, no intermediate allocations (scratch
  buffers are reused) and the resource models' bookkeeping done
  inline on their fields.  The
  identity-stability contract: captured lists/deques/dicts and the
  statistics objects are only ever mutated in place (``lst[:] = ...``,
  ``clear``, :meth:`CoreStats.reset`), never rebound.  The closures are
  stored on the core, so they never hold it strongly: ``run_fast``
  reaches it through a weak reference, dereferenced once per call.  A
  finished machine is therefore freed by reference counting, with no
  cycle left for the garbage collector
  (``tests/pipeline/test_no_cyclic_garbage.py``).
* **Stage skips** — on memory-bound workloads most cycles leave the
  ROB head waiting on a miss and the rename latch stuck, so
  ``run_fast`` skips stage work whose outcome cannot have changed:

  - *Commit* is skipped after a cycle that committed nothing, until
    writeback completes an instruction at the head of its thread's
    ROB list.  Nothing else can make a head committable: dispatch
    appends only uncompleted instructions and squashes only trim ROB
    tails.
  - *Dispatch* remembers the stall count of a scan that dispatched
    nothing and clears ``rescan``.  The scan's outcome depends only
    on the rename latch, ``rob.size``, the three IQ lengths and the
    two free-register counts, and those change only when a stage
    commits, issues, squashes, dispatches or renames; each of those
    sets ``rescan``.  While it is clear, the next scan would stall the
    same entries, so only its stall count is added to
    ``stats.dispatch_stalls``.

  Both states are locals of one ``run_fast`` call, so every call (and
  every ``tick()``) starts without them.
  ``tests/pipeline/test_fast_loop_parity.py`` checks that a long call
  equals one ``tick()`` per cycle on every counter, including those
  ``SimResult`` does not carry.
* **ROB-tail squash** — a thread's un-issued ROB entries are exactly
  its IQ entries (dispatch inserts into both; issue removes from the
  IQ only; commit pops only issued, completed heads), and an un-issued
  entry sits on its queue's ready list exactly when its ``pending`` is
  zero.  So the squash closure walks the thread's ROB tail once: it
  deletes the un-issued entries from their queues, filters only the
  ready lists that held one, releases every destination register and
  resets only the rename-map entries the squashed instructions own
  (no other squashed producer can be mapped: squashed latch and
  fetch-buffer entries were never dispatched).  The latches and the
  fetch buffer are filtered in one pass each.
  ``tests/pipeline/test_recovery_invariants.py`` checks these
  invariants after every cycle.
* **Compiled engine paths** — the fetch engines compile ``predict``,
  ``resolve_branch`` and the stream engine's ``commit`` the same way
  (``_build_paths`` in each engine module).  The BTB keeps a presence
  set of its tags, so gshare's block-formation scan tests each
  address's tag against it and walks a set only on a hit.
  ``tests/frontend/test_engine_parity.py`` checks them against
  engines composed from the component classes.

All of it is behaviour-preserving by contract: the golden-parity suite
(``tests/perf/test_golden_parity.py``) pins bit-identical
``SimResult``s across a (workload, engine, policy, seed) grid.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.frontend.fetch_unit import FetchUnit
from repro.isa.instruction import LATENCY_TABLE, DynInst, InstrClass
from repro.pipeline.resources import QUEUE_TABLE, InstructionQueues, \
    PhysicalRegisters, ReorderBuffer

if TYPE_CHECKING:
    from repro.core.config import SimConfig


class DeadlockError(RuntimeError):
    """No thread committed for an implausibly long time (simulator bug)."""


@dataclass(slots=True)
class CoreStats:
    """Back-end counters accumulated over a run."""

    cycles: int = 0
    committed: int = 0
    committed_by_thread: list[int] = field(default_factory=list)
    squashes: int = 0
    decode_redirects: int = 0
    issued: int = 0
    dispatch_stalls: int = 0
    rob_occupancy_sum: int = 0
    iq_occupancy_sum: int = 0
    wrong_path_committed: int = 0

    def reset(self) -> None:
        """Zero every counter in place (the cycle loop holds this object)."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, list):
                value[:] = [0] * len(value)
            else:
                setattr(self, f.name, 0)

    @property
    def ipc(self) -> float:
        """Commit throughput — the paper's overall performance metric."""
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def avg_rob_occupancy(self) -> float:
        """Mean ROB occupancy per cycle."""
        return self.rob_occupancy_sum / self.cycles if self.cycles else 0.0

    @property
    def avg_iq_occupancy(self) -> float:
        """Mean total IQ occupancy per cycle."""
        return self.iq_occupancy_sum / self.cycles if self.cycles else 0.0


class SmtCore:
    """Out-of-order SMT execution core around a decoupled front-end.

    The core takes the fetch engine, memory hierarchy, thread contexts
    and ICOUNT list from ``fetch_unit``, and its widths, structure sizes
    and watchdog from ``config``.

    ``tick`` is a closure built by :meth:`_build_cycle_loop` fusing
    all six back-end stages; see the module docstring for the
    specialisation contract.
    """

    def __init__(self, fetch_unit: FetchUnit, config: SimConfig) -> None:
        self.config = config
        self.fetch_unit = fetch_unit
        self.engine = fetch_unit.engine
        self.memory = fetch_unit.memory
        self.contexts = fetch_unit.contexts
        self.icounts = fetch_unit.icounts
        n = len(self.contexts)

        self.iqs = InstructionQueues(config.iq_int, config.iq_ldst,
                                     config.iq_fp)
        self.rob = ReorderBuffer(n, config.rob_entries)
        self.regs = PhysicalRegisters(n, config.int_regs, config.fp_regs)
        self.decode_latch: list[DynInst] = []
        self.rename_latch: list[DynInst] = []
        self.rename_map: list[dict[int, DynInst | None]] = \
            [dict() for _ in range(n)]
        # Event wheel: bucket b holds the instructions completing at the
        # cycle whose low bits are b, each bucket seq-ordered.  It spans
        # the first power of two above the longest latency issue can
        # charge (see the module docstring).
        longest = max(max(LATENCY_TABLE), LATENCY_TABLE[InstrClass.LOAD]
                      + self.memory.max_dread_latency)
        self._wheel: list[list[DynInst]] = \
            [[] for _ in range(1 << longest.bit_length())]
        self.cycle = 0
        self._age = 0
        self._last_commit_cycle = 0
        self.stats = CoreStats(committed_by_thread=[0] * n)
        self._build_cycle_loop()

    def reset_stats(self) -> None:
        """Zero the back-end counters; pipeline state is untouched."""
        self.stats.reset()

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, max_cycles: int) -> CoreStats:
        """Simulate ``max_cycles`` cycles."""
        self._run_fast(max_cycles)
        return self.stats

    # ------------------------------------------------------------------
    # the compiled cycle loop
    # ------------------------------------------------------------------

    def _build_cycle_loop(self) -> None:
        """Specialise the per-cycle loop for this core instance.

        Every structure captured below is identity-stable for the
        core's lifetime (mutated in place, never rebound), ``stats``
        included.  No closure holds the core itself: ``run_fast`` reads
        ``cycle`` and its other scalar state through a weak reference,
        once per call, so the closures stored on the core form no
        reference cycle with it.  The resulting ``tick`` closure is the
        sole implementation of the back-end stages.
        """
        core_ref = weakref.ref(self)
        core_stats = self.stats
        config = self.config
        n_threads = len(self.contexts)
        commit_width = config.commit_width
        decode_width = config.decode_width
        double_decode_width = 2 * config.decode_width
        issue_width = config.issue_width
        watchdog = config.watchdog_cycles
        rob = self.rob
        rob_lists = rob.lists
        rob_capacity = rob.capacity
        regs = self.regs
        iqs = self.iqs
        queues = iqs.queues
        q0, q1, q2 = queues
        iq_caps = iqs.capacity
        ready_lists = iqs.ready
        fu_counts = (config.int_units, config.ldst_units, config.fp_units)
        wheel = self._wheel
        wheel_mask = len(wheel) - 1
        icounts = self.icounts
        rename_map = self.rename_map
        decode_latch = self.decode_latch
        rename_latch = self.rename_latch
        # Scratch buffers reused every cycle (never reallocated).
        kept_scratch: list[DynInst] = []
        issued_scratch: list[int] = []
        contexts = self.contexts
        redirect = self.fetch_unit.redirect
        engine_resolve = self.engine.resolve_branch
        # Engines without commit-side training advertise it, so the
        # commit loop can skip a no-op call per committed instruction.
        engine_commit = self.engine.commit \
            if self.engine.commit_training else None
        dread = self.memory.dread
        dwrite = self.memory.dwrite
        fetch_buffer = self.fetch_unit.fetch_buffer
        fetch_stage = self.fetch_unit.fetch_stage
        predict_stage = self.fetch_unit.predict_stage
        decode_append = decode_latch.append
        latches = (decode_latch, rename_latch)
        latency_table = LATENCY_TABLE
        queue_table = QUEUE_TABLE
        op_load = int(InstrClass.LOAD)
        op_store = int(InstrClass.STORE)
        op_fp = int(InstrClass.FP_ALU)
        thread_range = range(n_threads)

        def run_fast(max_cycles: int) -> None:
            """Run the whole cycle loop for up to ``max_cycles``.

            All six back-end stages are fused inline: at steady state
            they execute every cycle, and fusing them shares the
            cycle/stats locals and removes six call frames per cycle.
            ``cycle`` and the last-commit watchdog mark are carried in
            locals across the entire call and written back on every
            exit path, so the loop itself touches no instance
            attributes.  Section comments mark the stage boundaries;
            processing is reverse pipeline order, as documented in the
            module docstring.
            """
            core = core_ref()
            if core is None:
                raise ReferenceError("this cycle loop's SmtCore was released")
            cycle = core.cycle
            stats = core_stats          # a fast local for the loop
            by_thread = stats.committed_by_thread
            iq_total = len(q0) + len(q1) + len(q2)
            stat_cycles = stats.cycles
            stat_committed = stats.committed
            stat_issued = stats.issued
            stat_rob_occ = stats.rob_occupancy_sum
            stat_iq_occ = stats.iq_occupancy_sum
            last_commit = core._last_commit_cycle
            target = cycle + max_cycles
            # Stage-skip state (see the module docstring).  It lives only
            # in this call, so a ``tick()`` never inherits a skip.
            commit_stuck = False
            rescan = True
            stall_count = 0
            try:
                while cycle < target:
                    # ---------------- commit stage ----------------
                    # Skipped while stuck: after a commit that committed
                    # nothing, only writeback completing a ROB head can
                    # change that (dispatch appends only uncompleted
                    # instructions, squashes only trim ROB tails).
                    if rob.size and not commit_stuck:
                        start = cycle % n_threads
                        committed = 0
                        for k in thread_range:
                            tid = start + k
                            if tid >= n_threads:
                                tid -= n_threads
                            lst = rob_lists[tid]
                            here = 0
                            while committed < commit_width and lst:
                                head = lst[0]
                                if not head.completed:
                                    break
                                lst.popleft()
                                # Return the destination register.
                                if head.static.dest >= 0:
                                    if head.op == op_fp:
                                        regs.free_fp += 1
                                    else:
                                        regs.free_int += 1
                                committed += 1
                                here += 1
                                if not head.on_correct_path:
                                    # Cannot happen: wrong-path instructions
                                    # are always squashed before their
                                    # thread's divergence commits.
                                    stats.wrong_path_committed += 1
                                if engine_commit is not None:
                                    engine_commit(head)
                            if here:
                                by_thread[tid] += here
                            if committed >= commit_width:
                                break
                        if committed:
                            rob.size -= committed
                            stat_committed += committed
                            last_commit = cycle
                            rescan = True
                        else:
                            commit_stuck = True

                    # ---------------- writeback stage ----------------
                    done = wheel[cycle & wheel_mask]
                    if done:
                        for di in done:
                            if di.squashed:
                                continue
                            di.completed = True
                            if commit_stuck \
                                    and rob_lists[di.tid][0] is di:
                                commit_stuck = False
                            waiters = di.waiters
                            if waiters is not None:
                                for w in waiters:
                                    pending = w.pending - 1
                                    w.pending = pending
                                    if pending == 0 and not w.squashed:
                                        # Join the ready list in age order.
                                        ready = ready_lists[queue_table[w.op]]
                                        age = w.age
                                        if ready and ready[-1].age > age:
                                            i = len(ready) - 1
                                            while i >= 0 and ready[i].age > age:
                                                i -= 1
                                            ready.insert(i + 1, w)
                                        else:
                                            ready.append(w)
                            # `di.static.kind` is truthy exactly for branches
                            # (NOT_BRANCH == 0) — the inlined `di.is_branch`.
                            if di.static.kind and di.on_correct_path:
                                engine_resolve(di)
                                if di.diverges:
                                    squash_from(di)
                                    rescan = True
                                    stats.squashes += 1
                                    iq_total = len(q0) + len(q1) \
                                        + len(q2)
                        del done[:]

                    # ---------------- issue stage ----------------
                    budget = issue_width
                    issued_total = 0
                    for q in (0, 1, 2):
                        if budget <= 0:
                            break
                        ready = ready_lists[q]
                        if not ready:
                            continue
                        nfree = fu_counts[q]    # every unit free again
                        queue = queues[q]
                        del issued_scratch[:]
                        # Ready lists are age-ordered by construction
                        # (monotonic dispatch stamps; writeback inserts by
                        # age; squash removal preserves relative order):
                        # this is oldest-first issue over exactly the ready
                        # entries.
                        for pos, di in enumerate(ready):
                            if budget <= 0 or nfree <= 0:
                                break           # width or unit budget spent
                            nfree -= 1          # claimed even if the access
                            op = di.op          # replays
                            latency = latency_table[op]
                            if op == op_load:
                                dcache = dread(di.tid, di.mem_addr, cycle)
                                if dcache is None:
                                    continue    # load without an MSHR: replay
                                latency += dcache
                            elif op == op_store:
                                dwrite(di.tid, di.mem_addr, cycle)
                            di.issued = True
                            # Full bypass network: results forward to
                            # dependents at `latency`; the register-read
                            # stage affects refill depth, not chains.
                            bucket = wheel[(cycle + latency) & wheel_mask]
                            seq = di.seq
                            if bucket and bucket[-1].seq > seq:
                                # Keep the bucket seq-ordered (right
                                # insertion keeps equal seqs, which
                                # different threads share, in issue
                                # order).
                                i = len(bucket) - 1
                                while i >= 0 and bucket[i].seq > seq:
                                    i -= 1
                                bucket.insert(i + 1, di)
                            else:
                                bucket.append(di)
                            icounts[di.tid] -= 1
                            del queue[di]
                            iq_total -= 1
                            issued_scratch.append(pos)
                            budget -= 1
                            issued_total += 1
                        m = len(issued_scratch)
                        if m:
                            if issued_scratch[m - 1] == m - 1:
                                # Issued entries form a prefix (no replayed
                                # load interleaved): one bulk delete.
                                del ready[:m]
                            else:
                                for pos in reversed(issued_scratch):
                                    ready.pop(pos)
                    if issued_total:
                        stat_issued += issued_total
                        rescan = True

                    # ---------------- dispatch stage ----------------
                    # Rename-latch to IQ/ROB, in order *per thread*: a thread
                    # whose queue/registers are exhausted blocks only itself
                    # (per-thread skid); the shared-capacity clog still
                    # operates through the IQ entries, registers and ROB
                    # slots the stalled thread occupies.
                    #
                    # A scan that dispatches nothing depends only on the
                    # latch, rob.size, the three IQ lengths and the two
                    # free-register counts.  Until a stage that moves one
                    # of them sets `rescan`, a rescan would stall the
                    # same entries again, so its stall count is added
                    # without the scan.
                    latch = rename_latch
                    if latch and not rescan:
                        stats.dispatch_stalls += stall_count
                    elif latch:
                        blocked = 0             # bitmask of stalled threads
                        stalls = 0
                        kept = kept_scratch
                        dispatched = 0
                        rob_size = rob.size
                        age = core._age
                        latch_iter = iter(latch)
                        for di in latch_iter:
                            if dispatched >= decode_width:
                                kept.append(di)
                                kept.extend(latch_iter)
                                break
                            tid = di.tid
                            if blocked >> tid & 1:
                                kept.append(di)
                                continue
                            if rob_size >= rob_capacity:
                                stalls += 1
                                kept.append(di)
                                kept.extend(latch_iter)
                                break
                            op = di.op
                            q = queue_table[op]
                            queue = queues[q]
                            static = di.static
                            dest = static.dest
                            if dest < 0:
                                regs_ok = True
                            elif op == op_fp:
                                regs_ok = regs.free_fp > 0
                            else:
                                regs_ok = regs.free_int > 0
                            if len(queue) >= iq_caps[q] or not regs_ok:
                                stalls += 1
                                blocked |= 1 << tid
                                kept.append(di)
                                continue
                            if dest >= 0:
                                if op == op_fp:
                                    regs.free_fp -= 1
                                else:
                                    regs.free_int -= 1
                            pending = 0
                            rmap = rename_map[tid]
                            srcs = static.srcs
                            if srcs:
                                for src in srcs:
                                    producer = rmap.get(src)
                                    if producer is not None \
                                            and not producer.completed \
                                            and not producer.squashed:
                                        pending += 1
                                        waiters = producer.waiters
                                        if waiters is None:
                                            producer.waiters = [di]
                                        else:
                                            waiters.append(di)
                            di.pending = pending
                            if dest >= 0:
                                rmap[dest] = di
                            rob_lists[tid].append(di)
                            rob_size += 1
                            di.age = age
                            queue[di] = None
                            iq_total += 1
                            if pending == 0:
                                # Ages are monotonic: append keeps age order.
                                ready_lists[q].append(di)
                            age += 1
                            dispatched += 1
                        if stalls:
                            stats.dispatch_stalls += stalls
                        if dispatched:
                            rob.size = rob_size
                            core._age = age
                            rescan = True
                            if kept:
                                latch[:] = kept
                                del kept[:]
                            else:
                                del latch[:]
                        else:
                            # Nothing moved: `kept` is the latch, unchanged.
                            del kept[:]
                            rescan = False
                            stall_count = stalls

                    # ---------------- rename stage ----------------
                    space = double_decode_width - len(rename_latch)
                    pending_decode = len(decode_latch)
                    move = pending_decode
                    if move > space:
                        move = space
                    if move > decode_width:
                        move = decode_width
                    if move == pending_decode:
                        if move:
                            rename_latch.extend(decode_latch)
                            del decode_latch[:]
                            rescan = True
                    elif move > 0:
                        rename_latch.extend(decode_latch[:move])
                        del decode_latch[:move]
                        rescan = True

                    # ---------------- decode stage ----------------
                    if fetch_buffer:
                        space = decode_width - len(decode_latch)
                        if space > 0:
                            avail = len(fetch_buffer)
                            if space < avail:
                                avail = space
                            popleft = fetch_buffer.popleft
                            for _ in range(avail):
                                di = popleft()
                                decode_append(di)
                                if di.diverges and di.on_correct_path \
                                        and di.resolve_at_decode:
                                    # Misfetched direct jump/call: the target
                                    # is known at decode — redirect now, drop
                                    # the wrong path.
                                    core._redirect_at_decode(di)
                                    break

                    # ---------------- front end + accounting ----------------
                    fetch_stage(cycle)
                    predict_stage(cycle)
                    stat_cycles += 1
                    stat_rob_occ += rob.size
                    stat_iq_occ += iq_total
                    if cycle - last_commit > watchdog:
                        raise DeadlockError(
                            f"no commit for {watchdog} cycles (cycle {cycle})")
                    cycle += 1
            finally:
                core.cycle = cycle
                core._last_commit_cycle = last_commit
                stats.cycles = stat_cycles
                stats.committed = stat_committed
                stats.issued = stat_issued
                stats.rob_occupancy_sum = stat_rob_occ
                stats.iq_occupancy_sum = stat_iq_occ

        def squash_from(di: DynInst) -> None:
            """Squash everything younger than ``di`` in its thread.

            One walk of the thread's ROB tail finds every squashed
            dispatched instruction.  Its un-issued entries are exactly
            the thread's IQ entries younger than ``di``, so the walk
            removes them from their queues (noting which ready lists
            held one), releases every destination register and clears
            the rename-map entries the squashed instructions own.  The
            two latches are then filtered in one pass each, and
            :meth:`FetchUnit.redirect` does the same for the fetch
            buffer.
            """
            tid = di.tid
            seq = di.seq
            lst = rob_lists[tid]
            rmap = rename_map[tid]
            squashed = 0
            removed = 0                 # ICOUNT: IQ and latch entries
            stale_ready = 0             # bitmask of queues to filter
            while lst and lst[-1].seq > seq:
                entry = lst.pop()
                entry.squashed = True
                squashed += 1
                op = entry.op
                if not entry.issued:
                    q = queue_table[op]
                    del queues[q][entry]
                    removed += 1
                    if entry.pending == 0:
                        # Un-issued with no pending producer: on its
                        # queue's ready list.
                        stale_ready |= 1 << q
                dest = entry.static.dest
                if dest >= 0:
                    # Return the destination register.
                    if op == op_fp:
                        regs.free_fp += 1
                    else:
                        regs.free_int += 1
                    if rmap[dest] is entry:
                        rmap[dest] = None
            if squashed:
                rob.size -= squashed
                for q in (0, 1, 2):
                    if stale_ready >> q & 1:
                        ready = ready_lists[q]
                        ready[:] = [w for w in ready if not w.squashed]
            for latch in latches:
                if latch:
                    kept = []
                    for entry in latch:
                        if entry.tid == tid and entry.seq > seq:
                            entry.squashed = True
                        else:
                            kept.append(entry)
                    gone = len(latch) - len(kept)
                    if gone:
                        removed += gone
                        latch[:] = kept
            icounts[tid] -= removed
            redirect(tid, contexts[tid].recover(), di)
            di.diverges = False             # recovery handled

        def tick() -> None:
            """Advance the machine by one cycle."""
            run_fast(1)

        self.tick = tick
        self._run_fast = run_fast
        self._squash_from = squash_from

    # ------------------------------------------------------------------
    # squash machinery (cold path)
    # ------------------------------------------------------------------

    def _redirect_at_decode(self, di: DynInst) -> None:
        tid = di.tid
        removed = self.iqs.remove_squashed(tid, di.seq)
        assert removed == 0, "younger instructions cannot be in the IQ"
        resume = self.contexts[tid].recover()
        self.fetch_unit.redirect(tid, resume, di)
        di.diverges = False             # recovery handled
        self.stats.decode_redirects += 1
