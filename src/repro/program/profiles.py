"""SPECint2000 benchmark profiles (paper Table 1, plus calibration knobs).

The paper characterises its benchmarks by ref input, fast-forward
distance and *average basic-block size* (Table 1) and classifies them as
ILP or memory-bounded by how they are used in Table 2's workloads
(``MEM`` workloads draw from mcf, twolf, vpr, perlbmk).

A :class:`BenchmarkProfile` records the Table 1 data verbatim and adds
the knobs the synthetic generator needs: code footprint, control
structure mix, branch predictability, data working set and dependence
density.  The knob values are chosen per benchmark class so the four
properties the paper's results depend on (block/stream length,
predictability, I-footprint, D-miss behaviour) land in realistic ranges;
the ``table1`` section of ``scripts/run_experiments.py`` regenerates
the measured equivalents of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BenchmarkProfile:
    """Generation parameters for one synthetic benchmark.

    Attributes mirroring the paper's Table 1:
        name: SPEC benchmark name without its numeric prefix.
        ref_input: Ref input set used by the paper.
        fast_forward_billion: Billions of instructions skipped before the
            paper's 300M-instruction trace window.
        avg_bb_size: Dynamic average basic-block size in instructions.

    Synthetic-workload knobs (see DESIGN.md, "Substitutions"):
        memory_bound: True for the paper's MEM-class benchmarks.
        n_functions / blocks_per_function: Control code footprint.
        loop_trip_mean: Mean loop trip count.
        p_loop / p_call / p_jump / p_indirect: Terminator mix; remaining
            probability mass becomes forward conditionals.
        fwd_taken_p: Mean taken probability of forward conditionals
            (low values = spike-like layout, longer streams).
        hard_branch_frac: Fraction of forward conditionals that are
            history-resistant (purely biased random).
        hard_bias: Taken probability of those hard branches.
        load_frac / store_frac / mul_frac / fp_frac: Instruction mix.
        ws_kb: Data working-set size in KB.
        chase_frac / stride_frac: Access-pattern mix for memory
            instructions (remainder is stack-like).
        dep_window: Register reuse distance; small values create serial
            dependence chains (low ILP).
        chase_chain_p: Probability a load depends on the previous load
            (pointer chasing).
        indirect_fanout: Max distinct targets of an indirect jump.
    """

    name: str
    ref_input: str
    fast_forward_billion: float
    avg_bb_size: float
    memory_bound: bool
    n_functions: int
    blocks_per_function: int
    loop_trip_mean: float
    p_loop: float
    p_call: float
    p_jump: float
    p_indirect: float
    fwd_taken_p: float
    hard_branch_frac: float
    hard_bias: float
    load_frac: float
    store_frac: float
    ws_kb: int
    chase_frac: float
    stride_frac: float
    dep_window: int
    chase_chain_p: float
    mul_frac: float = 0.04
    fp_frac: float = 0.01
    indirect_fanout: int = 3

    def __post_init__(self) -> None:
        total = self.p_loop + self.p_call + self.p_jump + self.p_indirect
        if total >= 1.0:
            raise ValueError(
                f"{self.name}: terminator probabilities sum to {total:.2f}, "
                f"leaving no mass for forward conditionals")
        mix = (self.load_frac + self.store_frac + self.mul_frac
               + self.fp_frac)
        if mix >= 1.0:
            raise ValueError(
                f"{self.name}: instruction mix sums to {mix:.2f}")
        if self.chase_frac + self.stride_frac > 1.0:
            raise ValueError(f"{self.name}: memory pattern mix exceeds 1")


SPECINT2000: dict[str, BenchmarkProfile] = {
    "gzip": BenchmarkProfile(
        name="gzip", ref_input="graphic", fast_forward_billion=68.1,
        avg_bb_size=11.02, memory_bound=False,
        n_functions=12, blocks_per_function=23, loop_trip_mean=14.0,
        p_loop=0.20, p_call=0.07, p_jump=0.07, p_indirect=0.01,
        fwd_taken_p=0.22, hard_branch_frac=0.035, hard_bias=0.70,
        load_frac=0.22, store_frac=0.11,
        ws_kb=128, chase_frac=0.05, stride_frac=0.55,
        dep_window=9, chase_chain_p=0.08),
    "vpr": BenchmarkProfile(
        name="vpr", ref_input="place", fast_forward_billion=2.1,
        avg_bb_size=9.68, memory_bound=True,
        n_functions=16, blocks_per_function=32, loop_trip_mean=9.0,
        p_loop=0.18, p_call=0.09, p_jump=0.08, p_indirect=0.01,
        fwd_taken_p=0.26, hard_branch_frac=0.065, hard_bias=0.72,
        load_frac=0.27, store_frac=0.11,
        ws_kb=1024, chase_frac=0.42, stride_frac=0.25,
        dep_window=4, chase_chain_p=0.35),
    "gcc": BenchmarkProfile(
        name="gcc", ref_input="166.i", fast_forward_billion=15.0,
        avg_bb_size=5.76, memory_bound=False,
        n_functions=48, blocks_per_function=72, loop_trip_mean=6.0,
        p_loop=0.14, p_call=0.12, p_jump=0.10, p_indirect=0.03,
        fwd_taken_p=0.30, hard_branch_frac=0.085, hard_bias=0.74,
        load_frac=0.25, store_frac=0.13,
        ws_kb=192, chase_frac=0.12, stride_frac=0.35,
        dep_window=7, chase_chain_p=0.12),
    "mcf": BenchmarkProfile(
        name="mcf", ref_input="inp.in", fast_forward_billion=43.5,
        avg_bb_size=3.92, memory_bound=True,
        n_functions=10, blocks_per_function=40, loop_trip_mean=12.0,
        p_loop=0.20, p_call=0.08, p_jump=0.07, p_indirect=0.01,
        fwd_taken_p=0.28, hard_branch_frac=0.050, hard_bias=0.70,
        load_frac=0.31, store_frac=0.09,
        ws_kb=8192, chase_frac=0.65, stride_frac=0.10,
        dep_window=4, chase_chain_p=0.50),
    "crafty": BenchmarkProfile(
        name="crafty", ref_input="crafty.in", fast_forward_billion=74.7,
        avg_bb_size=9.24, memory_bound=False,
        n_functions=30, blocks_per_function=43, loop_trip_mean=8.0,
        p_loop=0.16, p_call=0.10, p_jump=0.08, p_indirect=0.02,
        fwd_taken_p=0.24, hard_branch_frac=0.050, hard_bias=0.72,
        load_frac=0.24, store_frac=0.09,
        ws_kb=64, chase_frac=0.10, stride_frac=0.40,
        dep_window=8, chase_chain_p=0.08),
    "parser": BenchmarkProfile(
        name="parser", ref_input="ref.in", fast_forward_billion=83.1,
        avg_bb_size=6.37, memory_bound=False,
        n_functions=28, blocks_per_function=45, loop_trip_mean=7.0,
        p_loop=0.15, p_call=0.11, p_jump=0.09, p_indirect=0.02,
        fwd_taken_p=0.28, hard_branch_frac=0.075, hard_bias=0.76,
        load_frac=0.26, store_frac=0.12,
        ws_kb=320, chase_frac=0.20, stride_frac=0.30,
        dep_window=6, chase_chain_p=0.20),
    "eon": BenchmarkProfile(
        name="eon", ref_input="cook", fast_forward_billion=57.6,
        avg_bb_size=8.73, memory_bound=False,
        n_functions=28, blocks_per_function=41, loop_trip_mean=10.0,
        p_loop=0.18, p_call=0.12, p_jump=0.07, p_indirect=0.02,
        fwd_taken_p=0.20, hard_branch_frac=0.025, hard_bias=0.68,
        load_frac=0.24, store_frac=0.13, fp_frac=0.06,
        ws_kb=48, chase_frac=0.10, stride_frac=0.45,
        dep_window=9, chase_chain_p=0.05),
    "perlbmk": BenchmarkProfile(
        name="perlbmk", ref_input="splitmail.535",
        fast_forward_billion=45.3,
        avg_bb_size=10.06, memory_bound=True,
        n_functions=32, blocks_per_function=43, loop_trip_mean=9.0,
        p_loop=0.16, p_call=0.12, p_jump=0.09, p_indirect=0.03,
        fwd_taken_p=0.25, hard_branch_frac=0.055, hard_bias=0.73,
        load_frac=0.28, store_frac=0.13,
        ws_kb=640, chase_frac=0.30, stride_frac=0.30,
        dep_window=5, chase_chain_p=0.25),
    "gap": BenchmarkProfile(
        name="gap", ref_input="ref.in", fast_forward_billion=79.8,
        avg_bb_size=9.16, memory_bound=False,
        n_functions=28, blocks_per_function=39, loop_trip_mean=11.0,
        p_loop=0.19, p_call=0.10, p_jump=0.07, p_indirect=0.02,
        fwd_taken_p=0.23, hard_branch_frac=0.040, hard_bias=0.71,
        load_frac=0.25, store_frac=0.11,
        ws_kb=128, chase_frac=0.10, stride_frac=0.50,
        dep_window=8, chase_chain_p=0.08),
    "vortex": BenchmarkProfile(
        name="vortex", ref_input="lendian1.raw", fast_forward_billion=58.2,
        avg_bb_size=6.50, memory_bound=False,
        n_functions=40, blocks_per_function=54, loop_trip_mean=7.0,
        p_loop=0.14, p_call=0.13, p_jump=0.09, p_indirect=0.02,
        fwd_taken_p=0.26, hard_branch_frac=0.045, hard_bias=0.72,
        load_frac=0.27, store_frac=0.14,
        ws_kb=256, chase_frac=0.15, stride_frac=0.40,
        dep_window=7, chase_chain_p=0.12),
    "bzip2": BenchmarkProfile(
        name="bzip2", ref_input="inp.program", fast_forward_billion=51.3,
        avg_bb_size=10.02, memory_bound=False,
        n_functions=12, blocks_per_function=25, loop_trip_mean=15.0,
        p_loop=0.21, p_call=0.06, p_jump=0.06, p_indirect=0.01,
        fwd_taken_p=0.21, hard_branch_frac=0.040, hard_bias=0.70,
        load_frac=0.24, store_frac=0.12,
        ws_kb=160, chase_frac=0.08, stride_frac=0.55,
        dep_window=9, chase_chain_p=0.08),
    "twolf": BenchmarkProfile(
        name="twolf", ref_input="ref", fast_forward_billion=324.3,
        avg_bb_size=8.00, memory_bound=True,
        n_functions=20, blocks_per_function=38, loop_trip_mean=8.0,
        p_loop=0.17, p_call=0.09, p_jump=0.08, p_indirect=0.01,
        fwd_taken_p=0.27, hard_branch_frac=0.070, hard_bias=0.74,
        load_frac=0.29, store_frac=0.10,
        ws_kb=2048, chase_frac=0.50, stride_frac=0.15,
        dep_window=4, chase_chain_p=0.40),
}
