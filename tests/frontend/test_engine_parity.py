"""The compiled fetch engines equal engines composed from their components.

Each engine compiles its ``predict``, ``resolve_branch`` and ``commit``
into closures that inline the BTB/FTB probes and inserts, the gshare and
gskew predict/update, the stream predictor's lookup/update with its DOLC
hashing, the stream builder and the GHR/RAS operations.  The references
below compose the same operations from the public component API
(``BTB``, ``FTB``, ``GShare``, ``GSkew``, ``StreamPredictor``,
``DolcHistory``, ``_StreamBuilder``, ``GlobalHistory``,
``ReturnAddressStack``).  Both sides run one op sequence — predictions
at random pcs and threads, resolved correct-path branches of every kind,
committed instruction runs and repairs — on tables small enough that
evictions occur, and after every op the fetch request, every table set
(tags, values, LRU order), every counter and the GHR, RAS and DOLC
state must agree.
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.branch.btb import BTB
from repro.branch.ftb import FTB
from repro.branch.gshare import GShare
from repro.branch.gskew import GSkew
from repro.branch.history import GlobalHistory
from repro.branch.ras import ReturnAddressStack
from repro.branch.stream import DolcHistory, StreamPredictor
from repro.frontend.engine import make_engine
from repro.frontend.request import FetchRequest
from repro.frontend.stream_engine import _StreamBuilder
from repro.isa.instruction import INSTR_BYTES, BranchKind, DynInst, \
    InstrClass, StaticInstruction

THREADS = 3
BASE = 0x1000
PCS = 48                # code pool: 48 consecutive instructions
TARGETS = tuple(BASE + INSTR_BYTES * k for k in range(0, PCS, 5))
BRANCH_KINDS = (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL,
                BranchKind.RET, BranchKind.IND_JUMP)

# Tiny tables: every set overflows, and the 1-set stream second level
# exercises the zero-width DOLC fold.  Small tables: a few sets each.
CONFIGS = {
    "tiny": SimpleNamespace(
        gshare_entries=64, gshare_history=6, btb_entries=8, btb_assoc=2,
        gskew_bank_entries=64, gskew_history=5, ftb_entries=8, ftb_assoc=2,
        stream_l1_entries=8, stream_l2_entries=4, stream_assoc=4,
        ras_entries=4),
    "small": SimpleNamespace(
        gshare_entries=256, gshare_history=6, btb_entries=32, btb_assoc=4,
        gskew_bank_entries=256, gskew_history=5, ftb_entries=32,
        ftb_assoc=4, stream_l1_entries=32, stream_l2_entries=64,
        stream_assoc=4, ras_entries=8),
}


# ----------------------------------------------------------------------
# references composed from the components
# ----------------------------------------------------------------------

def _terminate(entry, term_addr, ghr, ras, direction):
    """Resolve a predicted block terminator (GHR-based engines)."""
    kind = entry.kind
    if kind == BranchKind.COND:
        taken = direction(term_addr, ghr.value)
        ghr.push(taken)
        target = entry.target
    elif kind == BranchKind.RET:
        taken, target = True, ras.pop()
    elif kind == BranchKind.CALL:
        taken, target = True, entry.target
        ras.push(term_addr + INSTR_BYTES)
    else:
        taken, target = True, entry.target
    return taken, target


def _repair_ghr_ras(ghr, ras, di):
    request = di.request
    if request is None:
        return
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


class ReferenceGShareBtb:
    def __init__(self, n, cfg):
        self.gshare = GShare(cfg.gshare_entries, cfg.gshare_history)
        self.btb = BTB(cfg.btb_entries, cfg.btb_assoc)
        self.ghr = [GlobalHistory(cfg.gshare_history) for _ in range(n)]
        self.ras = [ReturnAddressStack(cfg.ras_entries) for _ in range(n)]

    def predict(self, tid, pc, width):
        ghr, ras = self.ghr[tid], self.ras[tid]
        ghr_ckpt, ras_ckpt = ghr.snapshot(), ras.snapshot()
        for i in range(width):
            entry = self.btb.lookup(pc + i * INSTR_BYTES, tid)
            if entry is not None:
                break
        else:
            return FetchRequest(tid, pc, width, pc + width * INSTR_BYTES,
                                ghr_ckpt=ghr_ckpt, ras_ckpt=ras_ckpt)
        term_addr = pc + i * INSTR_BYTES
        taken, target = _terminate(entry, term_addr, ghr, ras,
                                   self.gshare.predict)
        next_pc = target if taken else term_addr + INSTR_BYTES
        return FetchRequest(tid, pc, i + 1, next_pc, True, taken, target,
                            ghr_ckpt, ras_ckpt)

    def resolve_branch(self, di):
        static = di.static
        if di.actual_taken:
            target = di.actual_target
        elif static.target_addr:
            target = static.target_addr
        else:
            target = static.addr + INSTR_BYTES
        self.btb.insert(di.pc, target, static.kind, di.tid)
        if static.kind == BranchKind.COND and di.request is not None:
            self.gshare.update(di.pc, di.request.ghr_ckpt, di.actual_taken,
                               predicted=di.pred_taken)

    def commit(self, di):
        pass

    def repair(self, tid, di):
        _repair_ghr_ras(self.ghr[tid], self.ras[tid], di)


class ReferenceGSkewFtb:
    def __init__(self, n, cfg):
        self.gskew = GSkew(cfg.gskew_bank_entries, cfg.gskew_history)
        self.ftb = FTB(cfg.ftb_entries, cfg.ftb_assoc)
        self.ghr = [GlobalHistory(cfg.gskew_history) for _ in range(n)]
        self.ras = [ReturnAddressStack(cfg.ras_entries) for _ in range(n)]

    def predict(self, tid, pc, width):
        ghr, ras = self.ghr[tid], self.ras[tid]
        ghr_ckpt, ras_ckpt = ghr.snapshot(), ras.snapshot()
        entry = self.ftb.lookup(pc, tid)
        if entry is None:
            return FetchRequest(tid, pc, width, pc + width * INSTR_BYTES,
                                ghr_ckpt=ghr_ckpt, ras_ckpt=ras_ckpt)
        term_addr = pc + (entry.length - 1) * INSTR_BYTES
        taken, target = _terminate(entry, term_addr, ghr, ras,
                                   self.gskew.predict)
        next_pc = target if taken else term_addr + INSTR_BYTES
        return FetchRequest(tid, pc, entry.length, next_pc, True, taken,
                            target, ghr_ckpt, ras_ckpt)

    def resolve_branch(self, di):
        request = di.request
        if di.actual_taken and request is not None:
            block_len = (di.pc - request.start_pc) // INSTR_BYTES + 1
            if block_len >= 1:
                self.ftb.insert(request.start_pc, block_len,
                                di.actual_target, di.static.kind, di.tid)
        if di.static.kind == BranchKind.COND and request is not None:
            self.gskew.update(di.pc, request.ghr_ckpt, di.actual_taken,
                              predicted=di.pred_taken)

    def commit(self, di):
        pass

    def repair(self, tid, di):
        _repair_ghr_ras(self.ghr[tid], self.ras[tid], di)


class ReferenceStream:
    def __init__(self, n, cfg):
        self.predictor = StreamPredictor(cfg.stream_l1_entries,
                                         cfg.stream_l2_entries,
                                         cfg.stream_assoc)
        self.dolc = [DolcHistory() for _ in range(n)]
        self.ras = [ReturnAddressStack(cfg.ras_entries) for _ in range(n)]
        self._builders = [None] * n

    def predict(self, tid, pc, width):
        dolc, ras = self.dolc[tid], self.ras[tid]
        dolc_ckpt, ras_ckpt = dolc.snapshot(), ras.snapshot()
        entry = self.predictor.lookup(pc, dolc, tid)
        if entry is None:
            return FetchRequest(tid, pc, width, pc + width * INSTR_BYTES,
                                ras_ckpt=ras_ckpt, dolc_ckpt=dolc_ckpt)
        length = entry.length
        if entry.kind == BranchKind.NOT_BRANCH:
            dolc.push(pc)
            return FetchRequest(tid, pc, length, pc + length * INSTR_BYTES,
                                ras_ckpt=ras_ckpt, dolc_ckpt=dolc_ckpt)
        target = ras.pop() if entry.kind == BranchKind.RET else entry.target
        if entry.kind == BranchKind.CALL:
            ras.push(pc + length * INSTR_BYTES)
        dolc.push(pc)
        return FetchRequest(tid, pc, length, target, True, True, target,
                            None, ras_ckpt, dolc_ckpt)

    def resolve_branch(self, di):
        pass

    def commit(self, di):
        builder = self._builders[di.tid]
        if builder is None:
            builder = self._builders[di.tid] = _StreamBuilder(di.pc)
        builder.observe(di, self.predictor)

    def repair(self, tid, di):
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


REFERENCES = {"gshare+BTB": ReferenceGShareBtb,
              "gskew+FTB": ReferenceGSkewFtb,
              "stream": ReferenceStream}


# ----------------------------------------------------------------------
# state extraction (same attribute layout on both sides)
# ----------------------------------------------------------------------

def _fields(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def _table(table):
    """Every set in LRU order (tags and entry fields) plus counters."""
    return ([[(tag, _fields(value)) for tag, value in entries]
             for entries in table._sets], table.hits, table.misses)


def state(engine):
    out = {"ras": [(r._top, list(r._stack)) for r in engine.ras]}
    if hasattr(engine, "btb"):
        g = engine.gshare
        out["btb"] = _table(engine.btb._table)
        out["gshare"] = (bytes(g._table._counters), g.lookups, g.updates,
                         g.correct)
    if hasattr(engine, "ftb"):
        g = engine.gskew
        out["ftb"] = _table(engine.ftb._table)
        out["gskew"] = (tuple(bytes(b._counters) for b in g._banks),
                        g.lookups, g.updates, g.correct)
    if hasattr(engine, "ghr"):
        out["ghr"] = [h.value for h in engine.ghr]
    if hasattr(engine, "predictor"):
        p = engine.predictor
        out["stream"] = (_table(p._first), _table(p._second), p.lookups,
                         p.first_hits, p.second_hits)
        out["dolc"] = [(d._path, d._last) for d in engine.dolc]
        out["builders"] = [
            None if b is None
            else (b.start, b.count, b.history._path, b.history._last)
            for b in engine._builders]
    return out


# ----------------------------------------------------------------------
# op sequences
# ----------------------------------------------------------------------

def _static(addr, kind):
    opclass = InstrClass.INT_ALU if kind == BranchKind.NOT_BRANCH \
        else InstrClass.BRANCH
    target = addr + 8 * INSTR_BYTES \
        if kind in (BranchKind.COND, BranchKind.JUMP, BranchKind.CALL) \
        else 0
    return StaticInstruction(0, addr, opclass, kind=kind,
                             target_addr=target)


def _branch(request, tid, static, taken, target, predicted):
    di = DynInst(tid, 0, static)
    di.request = request
    di.pred_taken = predicted
    di.actual_taken = taken
    di.actual_target = target if taken else 0
    return di


class Pair:
    """A compiled engine and its reference, driven in lockstep."""

    def __init__(self, kind, cfg):
        self.engine = make_engine(kind, THREADS, cfg)
        self.reference = REFERENCES[kind](THREADS, cfg)
        self.requests = [[None, None] for _ in range(THREADS)]

    def sides(self):
        return ((0, self.engine), (1, self.reference))

    def apply(self, op):
        name, tid = op[0], op[1]
        if name == "predict":
            _, _, pc, width = op
            got = [e.predict(tid, pc, width) for _, e in self.sides()]
            assert _fields(got[0]) == _fields(got[1])
            self.requests[tid] = got
        elif name in ("resolve", "repair"):
            _, _, offset, kind, taken, target, predicted = op
            if kind != BranchKind.COND:
                taken = True
            for side, e in self.sides():
                request = self.requests[tid][side]
                start = BASE if request is None else request.start_pc
                static = _static(start + offset * INSTR_BYTES, kind)
                di = _branch(request, tid, static, taken, target, predicted)
                if name == "resolve":
                    e.resolve_branch(di)
                else:
                    e.repair(tid, di)
        else:               # a committed run, repeated as a loop
            _, _, pc, length, kind, taken, target, repeat = op
            if kind != BranchKind.COND:
                taken = kind != BranchKind.NOT_BRANCH
            if repeat > 1:
                target = pc
            for _, e in self.sides():
                for i in range(length * repeat):
                    last = i % length == length - 1
                    static = _static(pc + i % length * INSTR_BYTES,
                                     kind if last else BranchKind.NOT_BRANCH)
                    e.commit(_branch(None, tid, static, last and taken,
                                     target, False))
        assert state(self.engine) == state(self.reference), op


TID = st.integers(0, THREADS - 1)
PC = st.integers(0, PCS - 1).map(lambda k: BASE + INSTR_BYTES * k)
TARGET = st.sampled_from(TARGETS)
OP = st.one_of(
    st.tuples(st.just("predict"), TID, PC, st.integers(1, 16)),
    st.tuples(st.sampled_from(("resolve", "resolve", "repair")), TID,
              st.integers(-1, 18), st.sampled_from(BRANCH_KINDS),
              st.booleans(), TARGET, st.booleans()),
    st.tuples(st.just("commit"), TID, PC, st.integers(1, 80),
              st.sampled_from((BranchKind.NOT_BRANCH,) + BRANCH_KINDS),
              st.booleans(), TARGET, st.integers(1, 4)),
)


def random_ops(rng, count):
    ops = []
    for _ in range(count):
        tid = rng.randrange(THREADS)
        pc = BASE + INSTR_BYTES * rng.randrange(PCS)
        choice = rng.random()
        if choice < 0.4:
            ops.append(("predict", tid, pc, rng.randint(1, 16)))
        elif choice < 0.8:
            ops.append((rng.choice(("resolve", "resolve", "repair")), tid,
                        rng.randint(-1, 18), rng.choice(BRANCH_KINDS),
                        rng.random() < 0.5, rng.choice(TARGETS),
                        rng.random() < 0.5))
        else:
            ops.append(("commit", tid, pc, rng.randint(1, 80),
                        rng.choice((BranchKind.NOT_BRANCH,) + BRANCH_KINDS),
                        rng.random() < 0.5, rng.choice(TARGETS),
                        rng.randint(1, 4)))
    return ops


ENGINES = ("gshare+BTB", "gskew+FTB", "stream")


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kind", ENGINES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OP, max_size=60))
def test_compiled_engine_matches_component_reference(kind, config, ops):
    pair = Pair(kind, CONFIGS[config])
    for op in ops:
        pair.apply(op)


@pytest.mark.parametrize("kind", ENGINES)
def test_every_table_path_occurs(kind):
    """A fixed random op stream reaches the paths the property relies on."""
    pair = Pair(kind, CONFIGS["small"])
    for op in random_ops(random.Random(7), 3000):
        pair.apply(op)
    engine = pair.engine
    if kind == "gshare+BTB":
        tables = [engine.btb._table]
        assert engine.gshare.lookups and engine.gshare.correct
    elif kind == "gskew+FTB":
        tables = [engine.ftb._table]
        assert engine.gskew.lookups and engine.gskew.correct
    else:
        tables = [engine.predictor._first, engine.predictor._second]
        assert engine.predictor.first_hits and engine.predictor.second_hits
        # The hysteresis saturated somewhere and decayed somewhere.
        confidences = {value.confidence for table in tables
                       for entries in table._sets for _, value in entries}
        assert {0, 3} <= confidences
    for table in tables:
        assert table.hits and table.misses
        # Every set full: insertions evicted entries.
        assert all(len(s) == table.assoc for s in table._sets)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_btb_presence_set_equals_stored_tags(config):
    """``BTB._keys`` holds exactly the tags stored in the BTB's sets."""
    pair = Pair("gshare+BTB", CONFIGS[config])
    for op in random_ops(random.Random(11), 2000):
        pair.apply(op)
        for btb in (pair.engine.btb, pair.reference.btb):
            tags = {tag for entries in btb._table._sets
                    for tag, _ in entries}
            assert btb._keys == tags
