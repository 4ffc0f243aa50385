"""Simulator performance and behaviour-preservation support.

Everything else in the repo measures the *simulated machine* (IPC,
IPFC); this package serves the benchmark that measures the *simulator*
and the contract that keeps its optimisations honest:

* :mod:`repro.perf.bench` — the engine/policy grid axes, geometric
  mean and host stamp shared by the repository benchmark
  (``perfbench/``; ``scripts/bench_ab.py`` compares two revisions of
  it);
* :mod:`repro.perf.parity` — the golden-parity fixture and its
  ``python -m repro.perf.parity --check`` CLI.
"""
