"""Synthetic program generator.

Builds a :class:`~repro.program.blocks.Program` from a
:class:`~repro.program.profiles.BenchmarkProfile` in three passes:

1. *Plan* — for each function, decide block count, block sizes and the
   terminator of every block (forward conditional, loop-back conditional,
   rare "break" conditional, direct jump, call, indirect jump, return).
2. *Layout* — assign contiguous addresses, functions back to back, so
   fall-through successors are implicit and frequently-sequential paths
   stay sequential (the spike-optimised layout the paper relies on for
   long streams).
3. *Instantiate* — emit instructions, behaviours and address generators.

The plan keeps the call graph acyclic (function *i* only calls *j > i*),
bounding call depth and guaranteeing the architectural walker never
underflows its return stack on the correct path.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache

from repro.isa.instruction import INSTR_BYTES, BranchKind, InstrClass, \
    StaticInstruction
from repro.program.behavior import BiasedBehavior, BranchBehavior, \
    IndirectBehavior, LoopBehavior, PatternBehavior
from repro.program.blocks import Function, Program, StaticBasicBlock
from repro.program.memgen import AddressGenerator, ChaseGenerator, \
    StackGenerator, StrideGenerator
from repro.program.profiles import SPECINT2000, BenchmarkProfile
from repro.util.bits import mix64, presalted, splitmix64

CODE_BASE = 0x0040_0000
"""Base address of the code segment."""

DATA_BASE = 0x2000_0000
"""Base address of the heap-like data segment."""

STACK_BASE = 0x7FF0_0000
"""Base address of the stack-like data segment."""

_STACK_REGION_BYTES = 8 * 1024
_STRIDES = (8, 8, 16, 64)
_MAX_BLOCK = 32
_MAX_LOOP_TRIP = 64
_CALL_REACH = 8          # function i may call (i, i + reach]
_ARCH_REGS = range(1, 31)  # r0 reserved as zero, r31 as link

_LOAD = InstrClass.LOAD
_STORE = InstrClass.STORE
_INT_MUL = InstrClass.INT_MUL
_FP_ALU = InstrClass.FP_ALU
_INT_ALU = InstrClass.INT_ALU
_BRANCH = InstrClass.BRANCH
_NOT_BRANCH = BranchKind.NOT_BRANCH
_COND = BranchKind.COND
_JUMP = BranchKind.JUMP
_CALL = BranchKind.CALL
_RET = BranchKind.RET
_IND_JUMP = BranchKind.IND_JUMP
_LOAD_OP = int(_LOAD)
_STORE_OP = int(_STORE)
_INT_MUL_OP = int(_INT_MUL)
_FP_ALU_OP = int(_FP_ALU)
_INT_ALU_OP = int(_INT_ALU)


@dataclass
class _BlockPlan:
    """Planned shape of one basic block before instantiation."""

    size: int                      # instructions, terminator included
    kind: BranchKind
    local_target: int = -1         # target block index within function
    callee_fid: int = -1           # for calls
    ind_targets: tuple[int, ...] = ()   # local block indices
    behavior_spec: tuple = ()      # ('loop', trip) / ('fwd', style, p) ...


@dataclass
class _FunctionPlan:
    blocks: list[_BlockPlan] = field(default_factory=list)


def _name_salt(name: str) -> int:
    return mix64(*name.encode())


def _sample_block_size(rng: random.Random, mean: float) -> int:
    """Sample a block size averaging ``mean`` dynamically, clipped to [1, 32].

    The +0.45 term compensates the truncation of the gamma sample and the
    execution weighting of loop bodies, calibrated against
    :func:`repro.trace.walker.dynamic_stats` over the twelve profiles.
    """
    if mean <= 1.0:
        return 1
    body = rng.gammavariate(2.0, (mean - 0.55) / 2.0)
    return max(1, min(_MAX_BLOCK, 1 + round(body)))


def _sample_trip(rng: random.Random, mean: float) -> int:
    trip = 2 + int(rng.expovariate(1.0 / max(mean - 2.0, 1.0)))
    return max(2, min(_MAX_LOOP_TRIP, trip))


def _plan_function(rng: random.Random, size_rng: random.Random,
                   profile: BenchmarkProfile,
                   fid: int, size_scale: float) -> _FunctionPlan:
    """Pass 1: choose block sizes and terminators for one function.

    Structure comes from ``rng`` and sizes from ``size_rng``: the
    calibration loop in :func:`generate_program` rescales sizes without
    perturbing the CFG, which keeps the measured dynamic block size a
    smooth function of the scale.
    """
    mean_blocks = profile.blocks_per_function
    n = max(4, min(3 * mean_blocks,
                   int(round(rng.gauss(mean_blocks, 0.25 * mean_blocks)))))
    plan = _FunctionPlan()
    can_call = fid + 1 < profile.n_functions
    loop_depth = 0   # crude nesting guard: avoid towers of backward branches

    for i in range(n):
        size = _sample_block_size(size_rng,
                                  profile.avg_bb_size * size_scale)
        if i == n - 1:
            # Function epilogue: main loops forever, others return.
            if fid == 0:
                plan.blocks.append(_BlockPlan(size, BranchKind.JUMP,
                                              local_target=0))
            else:
                plan.blocks.append(_BlockPlan(size, BranchKind.RET))
            continue
        if i >= n - 3:
            # Keep the tail simple so forward targets always exist.
            plan.blocks.append(_BlockPlan(size, BranchKind.JUMP,
                                          local_target=i + 1))
            continue

        r = rng.random()
        if r < profile.p_loop and i > 0 and loop_depth < 2:
            # Loop bodies span several blocks so that streams (sequences
            # between taken branches) cover multiple basic blocks, as in
            # layout-optimised binaries.
            span = 2 + int(rng.expovariate(1.0 / 2.5))
            back = max(0, i - min(span, 8))
            trip = _sample_trip(rng, profile.loop_trip_mean)
            plan.blocks.append(_BlockPlan(size, BranchKind.COND,
                                          local_target=back,
                                          behavior_spec=("loop", trip)))
            loop_depth += 1
            continue
        loop_depth = max(0, loop_depth - 1)
        r -= profile.p_loop
        if r < profile.p_call and can_call:
            callee = rng.randint(fid + 1,
                                 min(profile.n_functions - 1,
                                     fid + _CALL_REACH))
            plan.blocks.append(_BlockPlan(size, BranchKind.CALL,
                                          callee_fid=callee))
            continue
        r -= profile.p_call
        if r < profile.p_jump:
            skip = 1 if rng.random() < 0.6 else 2
            plan.blocks.append(_BlockPlan(size, BranchKind.JUMP,
                                          local_target=min(i + skip, n - 1)))
            continue
        r -= profile.p_jump
        if r < profile.p_indirect:
            fanout = rng.randint(2, max(2, profile.indirect_fanout))
            hi = min(i + 8, n - 1)
            targets = tuple(sorted({rng.randint(i + 1, hi)
                                    for _ in range(fanout)}))
            plan.blocks.append(_BlockPlan(size, BranchKind.IND_JUMP,
                                          ind_targets=targets,
                                          behavior_spec=("ind",)))
            continue
        # Forward conditional: the bread and butter of the CFG.
        target = rng.randint(i + 2, min(i + 7, n - 1))
        style_roll = rng.random()
        if style_roll < profile.hard_branch_frac:
            spec = ("fwd_hard",)
        elif style_roll < profile.hard_branch_frac + 0.35:
            spec = ("fwd_pattern",)
        else:
            spec = ("fwd_rare",)
        plan.blocks.append(_BlockPlan(size, BranchKind.COND,
                                      local_target=target,
                                      behavior_spec=spec))
    _demote_hard_branches_in_loops(plan)
    return plan


def _demote_hard_branches_in_loops(plan: _FunctionPlan) -> None:
    """Downgrade history-resistant branches inside loop bodies.

    A noisy branch executing every loop iteration floods the global
    history with pseudo-random bits and destroys the learnability of
    *every* branch around it — its dynamic weight is amplified far
    beyond its static share.  Real hard branches correlate with their
    surroundings in ways a pure random stream cannot model, so we keep
    hard branches to straight-line (colder) code.
    """
    in_loop = set()
    for i, block_plan in enumerate(plan.blocks):
        if block_plan.kind == BranchKind.COND and block_plan.behavior_spec \
                and block_plan.behavior_spec[0] == "loop":
            in_loop.update(range(block_plan.local_target, i))
    for j in in_loop:
        block_plan = plan.blocks[j]
        if block_plan.behavior_spec \
                and block_plan.behavior_spec[0] == "fwd_hard":
            block_plan.behavior_spec = ("fwd_rare",)


def _data_arena(rng: random.Random, profile: BenchmarkProfile,
                salt: int) -> Callable[[], AddressGenerator]:
    """Carve shared data regions; return the address-generator factory.

    The profile's working set is a *program* property: all chase
    generators point into one shared heap region of ``ws_kb`` so the
    union of their footprints equals the working set, and stride
    generators rotate through a few medium arrays.  Each call of the
    returned factory draws one generator from the profile's mix.
    """
    draw = rng.random
    getrandbits = rng.getrandbits
    chase_frac = profile.chase_frac
    stride_cut = profile.chase_frac + profile.stride_frac
    # Generator n is salted mix64(salt, 0xDA7A, n), which equals
    # splitmix64(mix64(salt, 0xDA7A) ^ n): fold the prefix once.
    salt_prefix = mix64(salt, 0xDA7A)
    ws_bytes = profile.ws_kb * 1024
    heap_bytes = max(ws_bytes, 4096)
    # Hot strided arrays stay small: real ILP-class SPECint keeps its
    # inner-loop data close to L1-resident; the big working set is
    # reached through the chase generators over the heap region.
    array_bytes = max(2 * 1024, min(16 * 1024, ws_bytes // 32))
    arrays = [DATA_BASE + heap_bytes + k * array_bytes for k in range(8)]
    serial = 0
    next_array = 0

    def make_generator() -> AddressGenerator:
        nonlocal serial, next_array
        serial += 1
        gen_salt = splitmix64(salt_prefix ^ serial)
        r = draw()
        if r < chase_frac:
            return ChaseGenerator(DATA_BASE, heap_bytes, gen_salt)
        if r < stride_cut:
            base = arrays[next_array % len(arrays)]
            next_array += 1
            # choice(_STRIDES) as Random._randbelow draws it: 3-bit
            # words until one is below len(_STRIDES).
            i = getrandbits(3)
            while i >= 4:
                i = getrandbits(3)
            return StrideGenerator(base, _STRIDES[i], array_bytes)
        return StackGenerator(STACK_BASE, _STACK_REGION_BYTES, gen_salt)

    return make_generator


def _make_pattern(rng: random.Random, taken_p: float) -> tuple[bool, ...]:
    # Short periods are fully learnable by a history predictor once the
    # surrounding control flow is stable — the realistic "easy" case.
    # Half are run-structured (e.g. T once every k): their phase is
    # recoverable from the branch's own recent outcome even when
    # neighbouring branches perturb the global history.
    length = rng.randint(2, 6)
    if rng.random() < 0.5:
        taken_slot = rng.randrange(length)
        return tuple(i == taken_slot for i in range(length))
    pattern = tuple(rng.random() < taken_p for _ in range(length))
    if any(pattern):
        return pattern
    # Guarantee at least one taken slot so the branch is not degenerate.
    idx = rng.randrange(length)
    return tuple(i == idx for i in range(length))


def _make_behavior(rng: random.Random, profile: BenchmarkProfile,
                   spec: tuple, salt: int,
                   ind_targets: tuple[int, ...] = ()) -> BranchBehavior:
    kind = spec[0]
    if kind == "loop":
        return LoopBehavior(spec[1])
    if kind == "ind":
        return IndirectBehavior(ind_targets, salt,
                                regularity=rng.uniform(0.6, 0.85))
    if kind == "fwd_hard":
        # Hard data-dependent branch: an irregular pattern whose period
        # exceeds the predictors' history length.  Learning it needs
        # many visits per history context — under table pressure this
        # is where gskew's aliasing tolerance pays off.  (A purely
        # random stream would be unlearnable by *any* history predictor
        # and its noise would poison the global history for every other
        # branch, so the period is kept within what a 10^5-instruction
        # window can partially learn.)
        jitter = rng.uniform(-0.08, 0.08)
        density = min(0.95, max(0.05, profile.hard_bias + jitter))
        length = rng.randint(24, 96)
        pattern = tuple(rng.random() < density for _ in range(length))
        return PatternBehavior(pattern)
    if kind == "fwd_pattern":
        return PatternBehavior(_make_pattern(rng, profile.fwd_taken_p))
    if kind == "fwd_rare":
        # Strongly biased branch.  Half are *never* taken (error checks,
        # cold paths): these are exactly what an FTB embeds inside its
        # fetch blocks while a BTB still terminates on them.  The rest
        # are rare "breaks" or nearly-always-taken guards.
        roll = rng.random()
        if roll < 0.5:
            return BiasedBehavior(0.0, salt)
        if roll < 0.8:
            return BiasedBehavior(rng.uniform(0.01, 0.06), salt)
        return BiasedBehavior(rng.uniform(0.94, 0.99), salt)
    raise ValueError(f"unknown behaviour spec {spec!r}")


def generate_program(profile: BenchmarkProfile, seed: int = 0) -> Program:
    """Generate the synthetic program for ``profile``.

    Deterministic in ``(profile, seed)``.  The returned program passes
    :meth:`Program.validate`.  Generation is closed-loop calibrated: the
    dynamic average basic-block size is measured on the correct path and
    block sizes are rescaled until it lands within a few percent of the
    profile's Table 1 target (execution weighting of loop bodies would
    otherwise skew individual seeds by 10-20%).
    """
    # Imported here to avoid a package-level cycle: repro.trace depends on
    # repro.program for its data types.
    from repro.trace.walker import dynamic_stats

    scale = 1.0
    program = _generate_once(profile, seed, scale)
    for _ in range(4):
        measured = dynamic_stats(program, 50_000).avg_block_size
        rel = measured / profile.avg_bb_size
        if 0.96 <= rel <= 1.04:
            break
        scale = min(2.5, max(0.4, scale / rel))
        # Free the rejected trial before building the next one, so
        # calibration never holds two programs at once.
        del program
        program = _generate_once(profile, seed, scale)
    return program


def _generate_once(profile: BenchmarkProfile, seed: int,
                   size_scale: float) -> Program:
    salt = mix64(seed, _name_salt(profile.name))
    rng = random.Random(salt)
    size_rng = random.Random(mix64(salt, 0x512E))

    plans = [_plan_function(rng, size_rng, profile, fid, size_scale)
             for fid in range(profile.n_functions)]

    # Pass 2: layout. Function f starts where f-1 ended.
    func_entry_addr: list[int] = []
    block_addr: list[list[int]] = []
    addr = CODE_BASE
    for plan in plans:
        func_entry_addr.append(addr)
        addrs = []
        for block_plan in plan.blocks:
            addrs.append(addr)
            addr += block_plan.size * INSTR_BYTES
        block_addr.append(addrs)

    # Pass 3: instantiate.  Calibration runs this up to five times per
    # program, so the body-instruction draws are inlined with the
    # profile fields and RNG methods they use bound to locals, and each
    # rng.choice is spelled as the getrandbits rejection loop that
    # Random._randbelow runs for it.  The draw order is fixed: changing
    # it changes every generated program.
    make_generator = _data_arena(rng, profile, salt)
    draw = rng.random
    getrandbits = rng.getrandbits
    boost = _mix_boost(profile)
    load_frac = profile.load_frac
    store_frac = profile.store_frac
    mul_frac = profile.mul_frac
    fp_frac = profile.fp_frac
    chase_chain_p = profile.chase_chain_p
    dep_window = profile.dep_window
    n_regs = len(_ARCH_REGS)
    reg_bits = n_regs.bit_length()
    first_reg = _ARCH_REGS[0]
    new = object.__new__
    behaviors: list[BranchBehavior] = []
    memgens: list[AddressGenerator] = []
    blocks: list[StaticBasicBlock] = []
    functions: list[Function] = []
    sid = 0
    bid = 0

    # Behaviour parameters are keyed by structural position (fid,
    # local_idx) so calibration rescales block sizes without changing
    # loop trips or the CFG: the terminator RNG is reseeded with
    # mix64(salt, 0xBEAF, fid, local_idx) and the behaviour salt is
    # mix64(mix64(salt, fid, local_idx), sid), with the constant
    # prefixes folded per function.  Some behaviours still move with
    # the scale: the sid in that salt does, and so does the number of
    # words _pick_srcs takes from the reseeded RNG before the behaviour
    # is drawn (DESIGN.md section 2).
    term_rng = random.Random()
    term_prefix = mix64(salt, 0xBEAF)
    for fid, plan in enumerate(plans):
        term_fid_prefix = splitmix64(term_prefix ^ fid)
        salt_fid_prefix = mix64(salt, fid)
        addrs = block_addr[fid]
        block_ids: list[int] = []
        recent_dests: list[int] = []
        n_recent = k_recent = 0    # len(recent_dests), its bit length
        recent_alu_dests: list[int] = []
        last_load_dest = -1
        for local_idx, block_plan in enumerate(plan.blocks):
            start = addr = addrs[local_idx]
            instrs: list[StaticInstruction] = []
            for _ in range(block_plan.size - 1):
                # One non-branch instruction with realistic dependences.
                r = draw() / boost
                if not n_recent:
                    srcs = ()
                else:
                    roll = draw()
                    if roll < 0.25:
                        srcs = ()               # immediate/constant operands
                    else:
                        i = getrandbits(k_recent)
                        while i >= n_recent:
                            i = getrandbits(k_recent)
                        if n_recent == 1 or roll < 0.70:
                            srcs = (recent_dests[i],)
                        else:
                            j = getrandbits(k_recent)
                            while j >= n_recent:
                                j = getrandbits(k_recent)
                            srcs = (recent_dests[i], recent_dests[j])
                dest = getrandbits(reg_bits)
                while dest >= n_regs:
                    dest = getrandbits(reg_bits)
                dest += first_reg
                # StaticInstruction.__init__ inlined -- keep in sync with
                # its slot list.
                instr = new(StaticInstruction)
                instr.sid = sid
                instr.addr = addr
                instr.kind = _NOT_BRANCH
                instr.target_addr = 0
                instr.behavior = -1
                if r < load_frac:
                    instr.memgen = len(memgens)
                    memgens.append(make_generator())
                    if last_load_dest >= 0 and draw() < chase_chain_p:
                        srcs = (last_load_dest,)
                    instr.opclass = _LOAD
                    instr.op = _LOAD_OP
                    last_load_dest = dest
                elif (r := r - load_frac) < store_frac:
                    instr.memgen = len(memgens)
                    memgens.append(make_generator())
                    instr.opclass = _STORE
                    instr.op = _STORE_OP
                    dest = -1
                else:
                    instr.memgen = -1
                    if (r := r - store_frac) < mul_frac:
                        instr.opclass = _INT_MUL
                        instr.op = _INT_MUL_OP
                    elif r - mul_frac < fp_frac:
                        instr.opclass = _FP_ALU
                        instr.op = _FP_ALU_OP
                    else:
                        instr.opclass = _INT_ALU
                        instr.op = _INT_ALU_OP
                        # Branch conditions prefer these: induction-
                        # variable style operands that resolve in one
                        # cycle.
                        recent_alu_dests.append(dest)
                        if len(recent_alu_dests) > 4:
                            del recent_alu_dests[0]
                instr.dest = dest
                instr.srcs = srcs
                instrs.append(instr)
                if dest >= 0:
                    recent_dests.append(dest)
                    if n_recent < dep_window:
                        n_recent += 1
                        k_recent = n_recent.bit_length()
                    else:
                        del recent_dests[0]
                sid += 1
                addr += INSTR_BYTES
            instrs.append(_make_terminator(
                term_rng, profile, block_plan, addr, sid, addrs,
                func_entry_addr, behaviors,
                recent_alu_dests or recent_dests,
                term_fid_prefix ^ local_idx, salt_fid_prefix ^ local_idx))
            sid += 1
            blocks.append(StaticBasicBlock(bid, fid, start, instrs))
            block_ids.append(bid)
            bid += 1
        functions.append(Function(fid, block_ids))

    return Program(profile.name, seed, functions, blocks, behaviors,
                   memgens)


def _mix_boost(profile: BenchmarkProfile) -> float:
    """Correction so the *dynamic* memory mix matches the profile.

    Profile fractions are per instruction, but only ``size - 1`` slots of
    each block are non-branch; small-block benchmarks (mcf) would
    otherwise under-shoot their load fraction substantially.
    """
    boost = profile.avg_bb_size / max(profile.avg_bb_size - 1.0, 1.0)
    mix = (profile.load_frac + profile.store_frac + profile.mul_frac
           + profile.fp_frac)
    return min(boost, 0.95 / mix)


def _pick_srcs(rng: random.Random,
               recent_dests: list[int]) -> tuple[int, ...]:
    """A terminator's source operands, drawn from recent destinations.

    The body-instruction loop of :func:`_generate_once` inlines the same
    draws for non-branch instructions.
    """
    if not recent_dests:
        return ()
    roll = rng.random()
    if roll < 0.25:
        return ()                       # immediate/constant operands
    if len(recent_dests) == 1 or roll < 0.70:
        return (rng.choice(recent_dests),)
    return (rng.choice(recent_dests), rng.choice(recent_dests))


def _make_terminator(rng: random.Random, profile: BenchmarkProfile,
                     block_plan: _BlockPlan, addr: int, sid: int,
                     addrs: list[int], func_entry_addr: list[int],
                     behaviors: list[BranchBehavior],
                     recent_dests: list[int],
                     term_key: int, salt_key: int) -> StaticInstruction:
    """Emit the terminating branch of a block from its plan.

    ``addrs`` are the block addresses of the block's function.  Only
    conditional and indirect terminators draw anything: ``rng`` is
    reseeded with ``splitmix64(term_key)``, :func:`_pick_srcs` draws
    their sources and then :func:`_make_behavior` their behaviour,
    salted ``mix64(splitmix64(salt_key), sid)``.  Returns, calls and
    jumps have no sources and no behaviour.
    """
    kind = block_plan.kind
    instr = StaticInstruction(sid, addr, _BRANCH, kind)
    if kind is _JUMP:
        instr.target_addr = addrs[block_plan.local_target]
    elif kind is _CALL:
        instr.dest = 31
        instr.target_addr = func_entry_addr[block_plan.callee_fid]
    elif kind is _COND or kind is _IND_JUMP:
        rng.seed(splitmix64(term_key))
        instr.srcs = _pick_srcs(rng, recent_dests)
        # mix64(block_salt, sid), as its two splitmix64 rounds.
        salt = splitmix64(presalted(splitmix64(salt_key)) ^ sid)
        if kind is _COND:
            instr.target_addr = addrs[block_plan.local_target]
            behavior = _make_behavior(rng, profile,
                                      block_plan.behavior_spec, salt)
        else:
            targets = tuple(addrs[t] for t in block_plan.ind_targets)
            behavior = _make_behavior(rng, profile,
                                      block_plan.behavior_spec, salt,
                                      ind_targets=targets)
        instr.behavior = len(behaviors)
        behaviors.append(behavior)
    elif kind is not _RET:
        raise ValueError(f"unexpected terminator kind {kind!r}")
    return instr


@lru_cache(maxsize=64)
def program_for(name: str, seed: int, /) -> Program:
    """Return the (cached) synthetic program for a SPECint2000 benchmark.

    Args:
        name: One of the twelve names in
            :data:`repro.program.profiles.SPECINT2000`.
        seed: Generation seed; programs are cached per (name, seed).
            Both are positional-only and required, so every call of
            one program shares one cache entry (``lru_cache`` keys on
            the call's form, not on the bound arguments).
    """
    if name not in SPECINT2000:
        known = ", ".join(sorted(SPECINT2000))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return generate_program(SPECINT2000[name], seed)
