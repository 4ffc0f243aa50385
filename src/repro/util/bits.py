"""Deterministic 64-bit hashing primitives.

The simulator never calls :func:`random.random` on its hot paths.  Branch
outcomes, indirect targets and data addresses are *pure functions* of
``(salt, occurrence index)`` built on splitmix64, which makes wrong-path
execution trivially safe: speculative fetch cannot corrupt architectural
state because there is no mutable state to corrupt.
"""

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
MIX_SEED = 0x243F6A8885A308D3
"""pi fractional bits; the (arbitrary, non-zero) fold start of mix64."""


def splitmix64(x: int) -> int:
    """Return the splitmix64 hash of ``x`` (a 64-bit avalanche function)."""
    x = (x + GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * MIX1) & MASK64
    x = ((x ^ (x >> 27)) * MIX2) & MASK64
    return x ^ (x >> 31)


def mix64(*values: int) -> int:
    """Hash an arbitrary sequence of integers into one 64-bit value.

    ``mix64(a, b)`` differs from ``mix64(b, a)``: the fold is
    order-sensitive, so distinct (salt, index) pairs never collide by
    transposition.  It also extends a prefix:
    ``mix64(*prefix, v) == splitmix64(mix64(*prefix) ^ v)`` for any
    ``0 <= v < 2**64``, so a caller hashing many values under one
    constant prefix can fold the prefix once.
    """
    acc = MIX_SEED
    for value in values:
        acc = splitmix64(acc ^ (value & MASK64))
    return acc


def presalted(salt: int) -> int:
    """The mix64 accumulator after folding ``salt``.

    ``mix64(salt, n) == splitmix64(presalted(salt) ^ n)`` for any
    ``0 <= n < 2**64``: per-occurrence generators (addresses, branch
    outcomes) precompute this once and inline the single remaining
    splitmix64 round on their hot path.
    """
    return splitmix64(MIX_SEED ^ (salt & MASK64))


def unit_float(h: int) -> float:
    """Map a 64-bit hash to a float uniformly distributed in [0, 1)."""
    return (h >> 11) / float(1 << 53)


def fold_bits(value: int, out_bits: int) -> int:
    """XOR-fold an integer down to ``out_bits`` bits.

    Used by predictor index functions to compress addresses and history
    registers into table indices while keeping every input bit relevant.
    """
    if out_bits <= 0:
        return 0
    mask = (1 << out_bits) - 1
    folded = 0
    value &= MASK64
    while value:
        folded ^= value & mask
        value >>= out_bits
    return folded
