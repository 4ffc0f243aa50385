"""Tests for the synthetic program generator and SPECint2000 profiles."""

import enum
import hashlib
import random

import pytest

from repro.isa.instruction import BranchKind, InstrClass
from repro.program import SPECINT2000, generate_program, program_for
from repro.program.generator import CODE_BASE, _BlockPlan, \
    _generate_once, _make_terminator
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


CALIBRATION_SCALES = (0.4, 1.0, 2.5)
"""The ends of calibration's block-size scale clamp, and its start."""

SCALE_PINS = {
    # name: per scale in CALIBRATION_SCALES, program_digest() of
    # _generate_once(profile, 0, scale) and the (branches, taken
    # branches, loads, stores) of dynamic_stats(program, 50_000)
    "bzip2": (
        ("490edd78264aebb92f14", (9295, 4509, 11795, 4903)),
        ("0795018559c22011af2a", (3977, 1896, 9827, 6979)),
        ("3f89a5ccb52c8b757a23", (2203, 1122, 13152, 5162)),
    ),
    "crafty": (
        ("5f6bcb7e5076eb982343", (13659, 8224, 11346, 3451)),
        ("8f10d7bd4856556014b8", (5959, 3666, 11363, 4515)),
        ("bc7387d22ab7f3133172", (2708, 1643, 12130, 4871)),
    ),
    "eon": (
        ("c87db08eebd2c493e3dc", (13577, 4852, 8010, 8249)),
        ("365a363fc2f0d80a4bd1", (5835, 2111, 10469, 7066)),
        ("1f454a96691e4c1ae450", (2666, 965, 10744, 8513)),
    ),
    "gap": (
        ("756a777938529258d657", (10837, 2851, 13625, 3898)),
        ("39d75db9281351be0dd5", (6295, 2167, 17674, 3676)),
        ("3e2c085079f361679b9d", (2224, 645, 14788, 6862)),
    ),
    "gcc": (
        ("014e5f40483b543abfda", (16130, 9091, 5971, 5778)),
        ("7b81b3878314acdcc64b", (7264, 4083, 13384, 5081)),
        ("6631f2208c0e05310ab2", (3135, 1774, 15086, 5933)),
    ),
    "gzip": (
        ("3835ff397299bd93c295", (8717, 5350, 9721, 5179)),
        ("e2ba6abbe59205b99194", (3486, 2132, 11502, 3384)),
        ("f0ad3f7df1403f06989c", (1891, 1139, 11116, 5711)),
    ),
    "mcf": (
        ("c9edb4f49827fdcb48d7", (28283, 17452, 8376, 4371)),
        ("915128633322cf271991", (12640, 7718, 15435, 5148)),
        ("16d4b66f08adaccea5c5", (5689, 3515, 17164, 4251)),
    ),
    "parser": (
        ("4f6d52abf10f70c9a3d1", (18615, 11662, 11978, 4790)),
        ("2ee50c37b0ccc82303ac", (8412, 5240, 14625, 4795)),
        ("079b16964fef1532a0b9", (3534, 2202, 13729, 8364)),
    ),
    "perlbmk": (
        ("2d2eb2388a70e2947e17", (9436, 4745, 8157, 7553)),
        ("8fec3cddf89ccb646fd8", (3874, 1952, 15441, 6380)),
        ("2acaf03911e47e57bb17", (2065, 1009, 14134, 6950)),
    ),
    "twolf": (
        ("3799a9c7bb63a65b50ac", (15238, 8414, 8901, 4139)),
        ("45103d6490a1bb59938d", (6978, 3866, 15475, 4967)),
        ("20563c2d312465e845db", (3008, 1683, 13771, 6102)),
    ),
    "vortex": (
        ("0cc090fbc20a827d3e9c", (15507, 10512, 9015, 10502)),
        ("259e87b4d1e1aea0e0b6", (6506, 4381, 13697, 4818)),
        ("9d944ec60b6a325f03df", (2839, 1884, 15383, 6988)),
    ),
    "vpr": (
        ("536984dc52e8579eee20", (10272, 6284, 16526, 6054)),
        ("227257e66c744945af4b", (4274, 2610, 9495, 3935)),
        ("349000d53d9556cf9116", (2016, 1252, 15687, 5082)),
    ),
}
"""Calibration's intermediate programs.  PROGRAM_DIGESTS pins only the
programs calibration returns, at whatever scales seeds 0 and 1 land on;
these pin the programs it measures on the way, across the clamp range.
Re-pin together with PROGRAM_DIGESTS."""


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
    return program_for(request.param, 0)


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
        assert program_for("mcf", 0) is program_for("mcf", 0)

    def test_program_for_unknown(self):
        with pytest.raises(KeyError, match="unknown benchmark"):
            program_for("doom", 0)


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


class TestCalibrationPins:
    def test_table_covers_every_benchmark(self):
        assert sorted(SCALE_PINS) == ALL_NAMES

    @pytest.mark.parametrize("scale", CALIBRATION_SCALES)
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_scaled_program_is_pinned(self, name, scale):
        digest, counts = SCALE_PINS[name][CALIBRATION_SCALES.index(scale)]
        program = _generate_once(SPECINT2000[name], 0, scale)
        stats = dynamic_stats(program, 50_000)
        assert program_digest(program) == digest
        assert (stats.branches, stats.taken_branches,
                round(stats.load_frac * stats.instructions),
                round(stats.store_frac * stats.instructions)) == counts


class TestTerminatorDraws:
    @pytest.mark.parametrize("block_plan", [
        _BlockPlan(4, BranchKind.RET),
        _BlockPlan(4, BranchKind.CALL, callee_fid=1),
        _BlockPlan(4, BranchKind.JUMP, local_target=2),
    ], ids=["ret", "call", "jump"])
    def test_unconditional_terminators_draw_nothing(self, block_plan):
        # Only conditional and indirect terminators (re)seed and draw
        # from the terminator RNG.
        rng = random.Random(99)
        before = rng.getstate()
        behaviors = []
        instr = _make_terminator(
            rng, SPECINT2000["gzip"], block_plan, 0x500, 7,
            [CODE_BASE + 64 * i for i in range(4)], [CODE_BASE, 0x9000],
            behaviors, [3, 5, 9], 11, 13)
        assert rng.getstate() == before
        assert (instr.srcs, instr.behavior, behaviors) == ((), -1, [])


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
