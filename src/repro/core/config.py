"""Simulation configuration (the paper's Table 3, plus run control).

Every sizing knob of the simulated machine lives here so experiments and
ablations can vary one number without touching wiring code.  Defaults
reproduce Table 3 exactly; deviations (documented in DESIGN.md) are the
parameters the paper does not specify: TLB miss penalty, D-MSHR count
and the warm-up protocol.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace


CONFIG_SCHEMA_VERSION = 2
"""Version of the fingerprint/result schema, hashed into every
:meth:`SimConfig.fingerprint`.

Bump it when the meaning of a cached result changes without any config
field changing — a new ``SimResult`` field, a semantic fix in a
simulated component, or a change to what a backend computes — so
entries written under the old semantics miss instead of deserialising
stale dicts.  Version 2: backend-aware configs (the ``backend`` field
and the pluggable :mod:`repro.backend` layer)."""


def canonical_hash(data) -> str:
    """SHA-256 of a canonical (sorted-key, compact) JSON rendering.

    The one hashing scheme behind every content key in the repo:
    :meth:`SimConfig.fingerprint` and the experiment cache's cell keys
    both go through here, so they can never drift apart.
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

    def fingerprint(self) -> str:
        """Content hash of every configuration field.

        Two configs with equal field values — regardless of object
        identity or construction order — produce the same fingerprint,
        making it safe as a persistent cache key component (unlike
        ``id()``, which CPython reuses after garbage collection).

        ``CONFIG_SCHEMA_VERSION`` participates in the hash, so a bump
        invalidates every previously-written cache entry at once.
        """
        return canonical_hash({"schema": CONFIG_SCHEMA_VERSION,
                               "config": self.to_dict()})


DEFAULT_CONFIG = SimConfig()
"""The Table 3 baseline configuration."""
