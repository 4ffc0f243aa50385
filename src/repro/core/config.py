"""Simulation configuration (the paper's Table 3, plus run control).

Every sizing knob of the simulated machine lives here, and only here:
:class:`~repro.core.simulator.Simulator` hands the config to each
component it builds, which reads its own fields from it, so experiments
and ablations can vary one number without touching wiring code.
Defaults follow Table 3 except where DESIGN.md says otherwise: shorter
predictor histories (§3) and the D-MSHR count, which the paper does not
give (§4).  The TLB miss penalty and page size, which it does not give
either, are constants of :mod:`repro.memory.tlb` (§5), and the warm-up
protocol is the simulator's (§6).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace


def canonical_hash(data) -> str:
    """SHA-256 of a canonical (sorted-key, compact) JSON rendering.

    The one hashing scheme behind every content key in the repo: cell
    keys (:func:`repro.campaign.cells.cell_key`) and campaign ids both
    go through here, so they can never drift apart.  A cell's
    descriptor carries every config field and ``CACHE_FORMAT_VERSION``,
    so a change to what a cached result means bumps that version and
    every stale entry misses.
    """
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SimConfig:
    """Machine + run configuration.

    Attributes mirror Table 3 of the paper; see class-level notes for
    the few values the paper leaves unspecified.
    """

    # --- front end -----------------------------------------------------
    fetch_buffer: int = 32          # "Fetch Buffer: 32 instr."
    ftq_depth: int = 4              # "FTQ size: 4-entry (per thread)"
    ras_entries: int = 64           # "RAS: 64-entry (per thread)"

    # --- predictors (~45KB budget each, Table 3) -----------------------
    # Table sizes follow Table 3.  History lengths are shortened from the
    # paper's 16/15 bits: with measurement windows of ~10^5 instructions
    # (vs the paper's 3*10^8), long histories never revisit a (pc,
    # history) context and all history predictors degenerate.  6/5 bits
    # keeps the gshare-vs-gskew relationship while matching the
    # simulation scale; see DESIGN.md.
    gshare_entries: int = 64 * 1024     # 64K-entry (paper: 16-bit hist)
    gshare_history: int = 6
    gskew_bank_entries: int = 32 * 1024  # 3 x 32K-entry (paper: 15-bit)
    gskew_history: int = 5
    btb_entries: int = 2048             # 2K-entry, 4-way
    btb_assoc: int = 4
    ftb_entries: int = 2048             # 2K-entry, 4-way
    ftb_assoc: int = 4
    stream_l1_entries: int = 1024       # 1K-entry, 4-way
    stream_l2_entries: int = 4096       # + 4K-entry, 4-way (DOLC path)
    stream_assoc: int = 4

    # --- memory system --------------------------------------------------
    l1i_kb: int = 32
    l1i_assoc: int = 2
    l1d_kb: int = 32
    l1d_assoc: int = 2
    l2_kb: int = 1024
    l2_assoc: int = 2
    line_bytes: int = 64
    cache_banks: int = 8
    l1_latency: int = 1
    l2_latency: int = 10            # "L2: 10 cyc."
    memory_latency: int = 100       # "Main Memory latency: 100 cycles"
    itlb_entries: int = 48
    dtlb_entries: int = 128
    dmshr_entries: int = 16         # not in Table 3; see DESIGN.md

    # --- execution core --------------------------------------------------
    decode_width: int = 8           # "Dec. & Ren. Width: 8 instr."
    issue_width: int = 8
    commit_width: int = 8
    rob_entries: int = 256
    iq_int: int = 32
    iq_ldst: int = 32
    iq_fp: int = 32
    int_regs: int = 384
    fp_regs: int = 384
    int_units: int = 6
    ldst_units: int = 4
    fp_units: int = 3

    # --- run control ------------------------------------------------------
    seed: int = 0
    warmup_cycles: int = 8000
    watchdog_cycles: int = 50_000
    backend: str = "reference"      # the one backend (repro.backend)

    def with_(self, **overrides) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """Every field as a plain (JSON-safe) mapping, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (they would silently change the
        machine being simulated); missing keys take the defaults.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown SimConfig fields: {', '.join(sorted(unknown))}")
        return cls(**data)


DEFAULT_CONFIG = SimConfig()
"""The Table 3 baseline configuration."""
