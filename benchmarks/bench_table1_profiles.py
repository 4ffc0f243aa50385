"""Table 1 — SPECint2000 characteristics of the synthetic workloads.

Regenerates the paper's benchmark-characterisation table: the measured
dynamic average basic-block size of each synthetic program against the
paper's value, plus the stream length the stream engine exploits.
"""

from conftest import TIMED_CYCLES

from repro.core.config import DEFAULT_CONFIG
from repro.program import SPECINT2000, program_for
from repro.trace import dynamic_stats


def bench_table1(benchmark):
    print()
    print(f"{'benchmark':10s} {'ref input':16s} {'fastfwd(B)':>10s} "
          f"{'BB paper':>9s} {'BB meas':>8s} {'stream':>7s} {'taken':>6s}")
    print("-" * 72)
    worst = 0.0
    for name in sorted(SPECINT2000):
        profile = SPECINT2000[name]
        stats = dynamic_stats(program_for(name, DEFAULT_CONFIG.seed),
                              50_000)
        rel = abs(stats.avg_block_size / profile.avg_bb_size - 1)
        worst = max(worst, rel)
        print(f"{name:10s} {profile.ref_input:16s} "
              f"{profile.fast_forward_billion:10.1f} "
              f"{profile.avg_bb_size:9.2f} {stats.avg_block_size:8.2f} "
              f"{stats.avg_stream_length:7.2f} {stats.taken_rate:6.2f}")
    print(f"worst relative block-size error: {worst:.1%}")
    assert worst < 0.20, "synthetic workloads drifted from Table 1"

    benchmark(lambda: dynamic_stats(program_for("gzip",
                                                DEFAULT_CONFIG.seed),
                                    TIMED_CYCLES * 10))
