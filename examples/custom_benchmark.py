#!/usr/bin/env python3
"""Build your own synthetic benchmark and run it through the SMT model.

Shows the full substrate API: define a :class:`BenchmarkProfile`,
generate the program, validate it, characterise its dynamic behaviour
(block/stream lengths, taken rate) and co-schedule it with a stock
SPECint2000 model on the simulated SMT processor.

Usage::

    python examples/custom_benchmark.py
"""

from repro.core import Simulator
from repro.program import BenchmarkProfile, generate_program
from repro.trace import dynamic_stats

# A pointer-chasing, hard-to-predict synthetic kernel: short blocks,
# a large working set and dependent loads — an mcf-like stressor.
CHASER = BenchmarkProfile(
    name="chaser", ref_input="synthetic", fast_forward_billion=0.0,
    avg_bb_size=5.0, memory_bound=True,
    n_functions=8, blocks_per_function=30, loop_trip_mean=10.0,
    p_loop=0.2, p_call=0.08, p_jump=0.06, p_indirect=0.02,
    fwd_taken_p=0.3, hard_branch_frac=0.08, hard_bias=0.7,
    load_frac=0.3, store_frac=0.1,
    ws_kb=4096, chase_frac=0.6, stride_frac=0.15,
    dep_window=4, chase_chain_p=0.5)


def main() -> None:
    program = generate_program(CHASER, seed=1)
    program.validate()
    stats = dynamic_stats(program, 40_000)
    print(f"generated {program.instruction_count} static instructions "
          f"in {len(program.blocks)} blocks")
    print(f"dynamic avg block size : {stats.avg_block_size:5.2f}")
    print(f"dynamic avg stream len : {stats.avg_stream_length:5.2f}")
    print(f"taken-branch rate      : {stats.taken_rate:5.2f}")
    print(f"load fraction          : {stats.load_frac:5.2f}")

    # Run it alongside a stock high-ILP model: the Simulator takes a
    # generated program wherever it takes a benchmark name.
    sim = Simulator(("eon", program), engine="stream", policy="ICOUNT.1.8")
    result = sim.run(15_000)
    print()
    print(f"eon + chaser on stream/ICOUNT.1.8: IPC {result.ipc:.2f} "
          f"(per-thread: "
          + ", ".join(f"{x:.2f}" for x in result.per_thread_ipc()) + ")")
    print("the chaser's dependent misses throttle its own throughput "
          "while eon keeps the core busy — the SMT value proposition.")


if __name__ == "__main__":
    main()
