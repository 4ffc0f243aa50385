"""Tests for the synthetic program generator and SPECint2000 profiles."""

import enum
import hashlib

import pytest

from repro.isa.instruction import BranchKind, InstrClass
from repro.program import SPECINT2000, generate_program, program_for
from repro.program.generator import CODE_BASE
from repro.trace import dynamic_stats, walk

ALL_NAMES = sorted(SPECINT2000)

PROGRAM_DIGESTS = {
    # name: (seed 0, seed 1) -- program_digest() of program_for(name, seed)
    "bzip2": ("e82820828c39e6b5fc56", "1d49f502758c9e20cb56"),
    "crafty": ("0e96a894361eb3d01bc9", "e200aff1d3a9bee50b9d"),
    "eon": ("365a363fc2f0d80a4bd1", "b3813d86c66282c456be"),
    "gap": ("4d4fb424b79e5091a54c", "9cc42a793a433bd8f4c2"),
    "gcc": ("5b491f0311694c92412d", "c993fdd4051525765a65"),
    "gzip": ("2025ca606215e16e1691", "7489d9f2bc4069b49744"),
    "mcf": ("915128633322cf271991", "e05086cd974612ae4e47"),
    "parser": ("c9ac2a17335973f3aecb", "d17102920a45c9c020d9"),
    "perlbmk": ("2b8af79c847f4f26bcb1", "5f285fdd2eee01d8a7f3"),
    "twolf": ("9e7ef05b03a647a8c8e1", "ad3a89d3b7b30d3b7970"),
    "vortex": ("dc7804fecbb8240293e1", "02bd1275c1d7193af889"),
    "vpr": ("80f80219e0b28e03187f", "c8a6de839d7ebac7ec14"),
}
"""Content digests of every generated program.  Any change to what the
generator emits -- an instruction field, a behaviour or address
generator parameter, a function's block list -- shows up here.  Re-pin
only for a deliberate change of the synthetic workloads (it changes
every simulated result, so it also needs a golden-parity regen)."""


def _slot_values(obj) -> tuple:
    """Type name plus every ``__slots__`` field of ``obj`` (whole MRO)."""
    names = [name for cls in type(obj).__mro__
             for name in getattr(cls, "__slots__", ())]
    return (type(obj).__name__,) + tuple(
        (name, _plain(getattr(obj, name))) for name in names)


def _plain(value):
    return value.value if isinstance(value, enum.Enum) else value


def program_digest(program) -> str:
    """SHA-256 (truncated) over everything a program is made of."""
    h = hashlib.sha256()

    def put(item) -> None:
        h.update(repr(item).encode())
        h.update(b"\n")

    put((program.name, program.seed, program.entry_addr))
    for function in program.functions:
        put(_slot_values(function))
    for block in program.blocks:
        put((block.bid, block.fid, block.start_addr))
        for instr in block.instrs:
            put(_slot_values(instr))
    for behavior in program.behaviors:
        put(_slot_values(behavior))
    for memgen in program.memgens:
        put(_slot_values(memgen))
    return h.hexdigest()[:20]


@pytest.fixture(scope="module", params=ALL_NAMES)
def program(request):
    return program_for(request.param)


class TestGeneratedStructure:
    def test_validates(self, program):
        program.validate()

    def test_every_block_ends_with_branch(self, program):
        for block in program.blocks:
            assert block.terminator is not None, \
                f"block {block.bid} of {program.name} has no terminator"

    def test_code_starts_at_base(self, program):
        assert program.entry_addr == CODE_BASE

    def test_function_finals_do_not_fall_through(self, program):
        for function in program.functions:
            last = program.blocks[function.block_ids[-1]]
            assert last.terminator.kind in (BranchKind.RET, BranchKind.JUMP)

    def test_call_graph_is_acyclic(self, program):
        entry_to_fid = {program.blocks[f.entry_bid].start_addr: f.fid
                        for f in program.functions}
        for block in program.blocks:
            term = block.terminator
            if term.kind == BranchKind.CALL:
                callee = entry_to_fid[term.target_addr]
                assert callee > block.fid

    def test_loads_and_stores_have_memgens(self, program):
        for block in program.blocks:
            for instr in block.instrs:
                if instr.opclass in (InstrClass.LOAD, InstrClass.STORE):
                    assert 0 <= instr.memgen < len(program.memgens)

    def test_conditionals_have_behaviors(self, program):
        for block in program.blocks:
            term = block.terminator
            if term.kind in (BranchKind.COND, BranchKind.IND_JUMP):
                assert 0 <= term.behavior < len(program.behaviors)


class TestDeterminism:
    def test_same_seed_same_program(self):
        a = generate_program(SPECINT2000["gzip"], seed=7)
        b = generate_program(SPECINT2000["gzip"], seed=7)
        assert a.instruction_count == b.instruction_count
        for addr in range(a.entry_addr, a.entry_addr + 400, 4):
            ia, ib = a.instr_at(addr), b.instr_at(addr)
            assert (ia.opclass, ia.kind, ia.dest, ia.srcs) == \
                   (ib.opclass, ib.kind, ib.dest, ib.srcs)

    def test_different_seed_different_program(self):
        a = generate_program(SPECINT2000["gzip"], seed=1)
        b = generate_program(SPECINT2000["gzip"], seed=2)
        shapes_a = [a.blocks[i].size for i in range(50)]
        shapes_b = [b.blocks[i].size for i in range(50)]
        assert shapes_a != shapes_b

    def test_program_for_cached(self):
        assert program_for("mcf") is program_for("mcf")

    def test_program_for_unknown(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            program_for("doom")


class TestProgramPins:
    def test_table_covers_every_benchmark(self):
        assert sorted(PROGRAM_DIGESTS) == ALL_NAMES

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_program_is_pinned(self, name, seed):
        assert program_digest(program_for(name, seed)) \
            == PROGRAM_DIGESTS[name][seed]

    def test_digest_sees_a_single_field(self):
        program = generate_program(SPECINT2000["mcf"], seed=0)
        before = program_digest(program)
        program.behaviors[0].salt ^= 1
        assert program_digest(program) != before


class TestTable1Calibration:
    """The generator must land near the paper's Table 1 numbers."""

    def test_dynamic_block_size_near_target(self, program):
        target = SPECINT2000[program.name].avg_bb_size
        stats = dynamic_stats(program, 50_000)
        assert stats.avg_block_size == pytest.approx(target, rel=0.18), \
            (f"{program.name}: measured {stats.avg_block_size:.2f} vs "
             f"Table 1 {target:.2f}")

    def test_calibration_measures_the_reference_ratio(self, program):
        # generate_program's calibration reads dynamic_stats' block
        # size; it must be the plain instructions-per-branch ratio of
        # the per-instruction reference walk.
        branches = sum(1 for static, _, _ in walk(program, 50_000)
                       if static.is_branch)
        assert dynamic_stats(program, 50_000).avg_block_size \
            == 50_000 / branches

    def test_streams_longer_than_blocks(self, program):
        stats = dynamic_stats(program, 50_000)
        assert stats.avg_stream_length > stats.avg_block_size * 1.2

    def test_taken_rate_reasonable(self, program):
        stats = dynamic_stats(program, 50_000)
        assert 0.3 < stats.taken_rate < 0.8

    def test_static_memory_mix_matches_profile(self, program):
        profile = SPECINT2000[program.name]
        instrs = [i for b in program.blocks for i in b.instrs]
        loads = sum(1 for i in instrs if i.opclass == InstrClass.LOAD)
        stores = sum(1 for i in instrs if i.opclass == InstrClass.STORE)
        assert loads / len(instrs) == pytest.approx(profile.load_frac,
                                                    abs=0.04)
        assert stores / len(instrs) == pytest.approx(profile.store_frac,
                                                     abs=0.04)

    def test_dynamic_memory_mix_roughly_matches(self, program):
        # Hot loops weight specific blocks, so the dynamic mix is noisy;
        # only guard against gross distortion.
        profile = SPECINT2000[program.name]
        stats = dynamic_stats(program, 50_000)
        assert stats.load_frac == pytest.approx(profile.load_frac, abs=0.15)
        assert stats.store_frac == pytest.approx(profile.store_frac,
                                                 abs=0.10)


class TestProfileTable:
    def test_twelve_benchmarks(self):
        assert len(SPECINT2000) == 12

    def test_table1_values_recorded(self):
        # Spot-check the Table 1 numbers are transcribed correctly.
        assert SPECINT2000["gzip"].avg_bb_size == 11.02
        assert SPECINT2000["mcf"].avg_bb_size == 3.92
        assert SPECINT2000["twolf"].fast_forward_billion == 324.3
        assert SPECINT2000["gcc"].ref_input == "166.i"

    def test_memory_bound_classification(self):
        mem = {name for name, p in SPECINT2000.items() if p.memory_bound}
        assert mem == {"mcf", "twolf", "vpr", "perlbmk"}
