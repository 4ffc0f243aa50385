"""The stream fetch engine (paper Section 3.3, Ramirez et al. 2002).

One prediction names a whole *instruction stream* — from a taken-branch
target to the next taken branch, embedding every not-taken conditional
on the way.  Streams average well over a basic block (Table 1 vs. the
stream-length statistics in :mod:`repro.trace.walker`), so a single
thread can fill a 16-wide fetch path over several sequential I-cache
accesses: the property that makes ICOUNT.1.16 competitive with 2.X
policies at far lower complexity.

There is no separate direction predictor: direction is implicit (a
stream *ends* at a taken branch).  Training happens at commit in the
per-thread stream builder; the speculative DOLC path history is
checkpointed per request and repaired on squashes.
"""

from __future__ import annotations

from repro.branch.ras import ReturnAddressStack
from repro.branch.stream import MAX_STREAM_LENGTH, DolcHistory, \
    StreamEntry, StreamPredictor
from repro.frontend.engine import FetchEngine
from repro.frontend.request import FetchRequest
from repro.isa.instruction import INSTR_BYTES, BranchKind, DynInst


class _StreamBuilder:
    """Commit-side stream reconstruction for one thread.

    The engine's compiled ``commit`` inlines :meth:`observe`, which
    stays as its reference.
    """

    __slots__ = ("start", "count", "history")

    def __init__(self, entry_addr: int) -> None:
        self.start = entry_addr
        self.count = 0
        self.history = DolcHistory()

    def observe(self, di: DynInst, predictor: StreamPredictor) -> None:
        self.count += 1
        kind = di.static.kind           # truthy exactly for branches
        if kind and di.actual_taken:
            predictor.update(self.start, self.count, di.actual_target,
                             kind, self.history, di.tid)
            self.history.push(self.start)
            self.start = di.actual_target
            self.count = 0
        elif self.count >= MAX_STREAM_LENGTH:
            # Overlong sequential run: split into a pseudo-stream that
            # continues sequentially (kind NOT_BRANCH).
            next_pc = di.static.addr + INSTR_BYTES
            predictor.update(self.start, self.count, next_pc,
                             BranchKind.NOT_BRANCH, self.history, di.tid)
            self.history.push(self.start)
            self.start = next_pc
            self.count = 0


class StreamFetchEngine(FetchEngine):
    """Cascaded stream predictor (1K + 4K, 4-way) + per-thread RAS."""

    name = "stream"

    def __init__(self, n_threads: int, config=None) -> None:
        first = getattr(config, "stream_l1_entries", 1024)
        second = getattr(config, "stream_l2_entries", 4096)
        assoc = getattr(config, "stream_assoc", 4)
        ras_entries = getattr(config, "ras_entries", 64)
        self.n_threads = n_threads
        self.predictor = StreamPredictor(first, second, assoc)
        self.dolc = [DolcHistory() for _ in range(n_threads)]
        self.ras = [ReturnAddressStack(ras_entries)
                    for _ in range(n_threads)]
        self._builders: list[_StreamBuilder | None] = [None] * n_threads
        self._build_paths()

    def _build_paths(self) -> None:
        """Compile ``predict`` and ``commit`` as closures.

        ``predict`` inlines :meth:`StreamPredictor.lookup` with the
        DOLC snapshot, index (and its ``fold_bits``) and push; ``commit``
        inlines :meth:`_StreamBuilder.observe` and
        :meth:`StreamPredictor.update`.  Both keep the components' order
        and every counter and LRU move (see the gshare engine notes).
        """
        dolcs = self.dolc
        rass = self.ras
        builders = self._builders
        predictor = self.predictor
        first = predictor._first
        first_sets = first._sets
        first_mask = first._set_mask
        first_assoc = first.assoc
        second = predictor._second
        second_sets = second._sets
        second_mask = second._set_mask
        second_assoc = second.assoc
        # Every DOLC register here has DolcHistory's default shape.
        shape = DolcHistory()
        older_mask = (1 << shape.older_bits) - 1
        older_bits = shape.older_bits
        last_mask = (1 << shape.last_bits) - 1
        last_bits = shape.last_bits
        current_mask = (1 << shape.current_bits) - 1
        current_bits = shape.current_bits
        path_mask = shape._path_mask
        # fold_bits over a DOLC hash of depth * older + last + current
        # bits (46 here): XOR the value with itself shifted by every
        # multiple of the index width below that.  The fold's final mask
        # is the second level's set mask, applied at the set probe.
        fold_width = predictor._second_index_bits
        hash_bits = shape.depth * shape.older_bits + shape.last_bits \
            + shape.current_bits
        fold_shifts = tuple(range(fold_width, hash_bits, fold_width)) \
            if fold_width > 0 else ()
        stream_entry = StreamEntry
        stream_builder = _StreamBuilder
        max_length = MAX_STREAM_LENGTH
        fetch_request = FetchRequest
        instr_bytes = INSTR_BYTES
        not_branch = BranchKind.NOT_BRANCH
        ret = BranchKind.RET
        call = BranchKind.CALL

        def predict(tid: int, pc: int, width: int) -> FetchRequest:
            """Predict the whole stream starting at ``pc``."""
            dolc = dolcs[tid]
            ras = rass[tid]
            path = dolc._path
            last = dolc._last
            dolc_ckpt = (path, last)            # DolcHistory.snapshot
            ras_stack = ras._stack
            ras_top = ras._top
            ras_ckpt = (ras_top, ras_stack[ras_top])    # RAS.snapshot
            # Inlined StreamPredictor.lookup: the path-indexed second
            # level first (DolcHistory.index and fold_bits inlined),
            # then the address-indexed first level.
            predictor.lookups += 1
            key = pc * 64 + tid
            asid_mix = tid * 0x9E37
            value = ((((path << last_bits)
                       | (((last >> 2) ^ (last >> 7) ^ (last >> 13))
                          & last_mask)) << current_bits)
                     | (((pc >> 2) ^ (pc >> 7) ^ (pc >> 13))
                        & current_mask))
            folded = value
            for shift in fold_shifts:
                folded ^= value >> shift
            slots = second_sets[(folded ^ asid_mix) & second_mask]
            for posn, slot in enumerate(slots):
                if slot[0] == key:
                    if posn:
                        slots.insert(0, slots.pop(posn))
                    second.hits += 1
                    predictor.second_hits += 1
                    entry = slot[1]
                    break
            else:
                second.misses += 1
                slots = first_sets[((pc >> 2) ^ asid_mix) & first_mask]
                for posn, slot in enumerate(slots):
                    if slot[0] == key:
                        if posn:
                            slots.insert(0, slots.pop(posn))
                        first.hits += 1
                        predictor.first_hits += 1
                        entry = slot[1]
                        break
                else:
                    first.misses += 1
                    # Cold stream: sequential fallback, trained at
                    # commit.  Positional args: this runs every cycle.
                    return fetch_request(tid, pc, width,
                                         pc + width * instr_bytes,
                                         False, False, 0, None,
                                         ras_ckpt, dolc_ckpt)

            # Inlined DolcHistory.push(pc), shared by every hit below.
            dolc._path = ((path << older_bits)
                          | (((last >> 2) ^ (last >> 7) ^ (last >> 13))
                             & older_mask)) & path_mask
            dolc._last = pc
            length = entry.length
            kind = entry.kind
            if kind == not_branch:
                # Split pseudo-stream: continues sequentially, no branch.
                return fetch_request(tid, pc, length,
                                     pc + length * instr_bytes,
                                     False, False, 0, None,
                                     ras_ckpt, dolc_ckpt)
            if kind == ret:
                target = ras_stack[ras_top]     # RAS.pop
                ras._top = (ras_top - 1) % ras.size
            else:
                target = entry.target
                if kind == call:
                    ras_top = (ras_top + 1) % ras.size  # RAS.push
                    ras._top = ras_top
                    ras_stack[ras_top] = \
                        pc + length * instr_bytes       # term_addr + 4
            return fetch_request(tid, pc, length, target,
                                 True, True, target, None,
                                 ras_ckpt, dolc_ckpt)

        def commit(di: DynInst) -> None:
            """Feed the committed instruction to the thread's stream builder."""
            tid = di.tid
            builder = builders[tid]
            static = di.static
            if builder is None:
                # First committed instruction defines the first stream
                # start.
                builder = stream_builder(static.addr)
                builders[tid] = builder
            # Inlined _StreamBuilder.observe.
            count = builder.count + 1
            kind = static.kind          # truthy exactly for branches
            if kind and di.actual_taken:
                target = di.actual_target
            elif count >= max_length:
                # Overlong sequential run: split into a pseudo-stream
                # that continues sequentially (kind NOT_BRANCH).
                target = static.addr + instr_bytes
                kind = not_branch
            else:
                builder.count = count
                return
            start = builder.start
            history = builder.history
            path = history._path
            last = history._last
            # Inlined StreamPredictor.update: both levels, first-level
            # index, then the DOLC path index.
            length = count if count < max_length else max_length
            key = start * 64 + tid
            asid_mix = tid * 0x9E37
            value = ((((path << last_bits)
                       | (((last >> 2) ^ (last >> 7) ^ (last >> 13))
                          & last_mask)) << current_bits)
                     | (((start >> 2) ^ (start >> 7) ^ (start >> 13))
                        & current_mask))
            folded = value
            for shift in fold_shifts:
                folded ^= value >> shift
            for table, slots, assoc in (
                    (first, first_sets[((start >> 2) ^ asid_mix)
                                       & first_mask], first_assoc),
                    (second, second_sets[(folded ^ asid_mix)
                                         & second_mask], second_assoc)):
                # Inlined SetAssocTable.lookup, then the insert or the
                # hysteresis update.
                for posn, slot in enumerate(slots):
                    if slot[0] == key:
                        if posn:
                            slots.insert(0, slots.pop(posn))
                        table.hits += 1
                        entry = slot[1]
                        break
                else:
                    table.misses += 1
                    slots.insert(0, (key, stream_entry(length, target,
                                                       kind)))
                    if len(slots) > assoc:
                        slots.pop()
                    continue
                confidence = entry.confidence
                if entry.length == length and entry.target == target:
                    entry.confidence = confidence + 1 \
                        if confidence < 3 else 3
                elif confidence > 0:
                    entry.confidence = confidence - 1
                else:
                    # SetAssocTable.insert of a key now at the MRU slot.
                    slots[0] = (key, stream_entry(length, target, kind))
            # Inlined DolcHistory.push(start) on the builder's history.
            history._path = ((path << older_bits)
                             | (((last >> 2) ^ (last >> 7) ^ (last >> 13))
                                & older_mask)) & path_mask
            history._last = start
            builder.start = target
            builder.count = 0

        self.predict = predict
        self.commit = commit

    def resolve_branch(self, di: DynInst) -> None:
        """No resolve-time training: streams are built at commit."""

    def repair(self, tid: int, di: DynInst) -> None:
        """Restore DOLC path history and RAS after a squash."""
        request = di.request
        if request is None:
            return
        if request.dolc_ckpt is not None:
            self.dolc[tid].restore(request.dolc_ckpt)
        if request.ras_ckpt is not None:
            self.ras[tid].restore(request.ras_ckpt)
        if di.static.kind == BranchKind.CALL:
            self.ras[tid].push(di.pc + INSTR_BYTES)
        elif di.static.kind == BranchKind.RET:
            self.ras[tid].pop()

    def stats(self) -> dict[str, float]:
        """Stream table hit rates."""
        lookups = self.predictor.lookups or 1
        return {
            "stream_hit_rate": (self.predictor.first_hits
                                + self.predictor.second_hits) / lookups,
            "stream_l2_share": self.predictor.second_hits / lookups,
        }

    def reset_stats(self) -> None:
        """Zero stream-table counters; trained streams are kept."""
        self.predictor.reset_stats()
