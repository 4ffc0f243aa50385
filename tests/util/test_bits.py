"""Tests for the deterministic hashing primitives."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import MASK64, fold_bits, mix64, splitmix64, unit_float

u64 = st.integers(min_value=0, max_value=MASK64)


class TestSplitmix64:
    def test_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_known_distinct_inputs_differ(self):
        outputs = {splitmix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    @given(u64)
    def test_output_in_range(self, x):
        assert 0 <= splitmix64(x) <= MASK64

    def test_avalanche_single_bit(self):
        # Flipping one input bit should flip roughly half the output bits.
        base = splitmix64(0x1234_5678)
        flipped = splitmix64(0x1234_5678 ^ 1)
        differing = bin(base ^ flipped).count("1")
        assert 16 <= differing <= 48


class TestMix64:
    def test_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_arity_sensitive(self):
        assert mix64(1) != mix64(1, 0)

    @given(st.lists(u64, min_size=1, max_size=6))
    def test_deterministic(self, values):
        assert mix64(*values) == mix64(*values)

    @given(u64, u64)
    def test_in_range(self, a, b):
        assert 0 <= mix64(a, b) <= MASK64

    @given(st.lists(st.integers(), max_size=4), u64)
    def test_extends_a_folded_prefix(self, prefix, value):
        # The program generator folds constant prefixes once on the
        # strength of this identity.
        assert mix64(*prefix, value) \
            == splitmix64(mix64(*prefix) ^ value)


class TestUnitFloat:
    @given(u64)
    def test_in_unit_interval(self, h):
        f = unit_float(h)
        assert 0.0 <= f < 1.0

    def test_uniformity_coarse(self):
        samples = [unit_float(splitmix64(i)) for i in range(4000)]
        below_half = sum(1 for s in samples if s < 0.5)
        assert 1800 <= below_half <= 2200


class TestFoldBits:
    @given(u64, st.integers(min_value=1, max_value=32))
    def test_within_width(self, value, width):
        assert 0 <= fold_bits(value, width) < (1 << width)

    def test_zero_width(self):
        assert fold_bits(12345, 0) == 0

    def test_uses_high_bits(self):
        # Values differing only in high bits must fold differently
        # (most of the time); check a specific case.
        a = fold_bits(0xABCD << 40, 16)
        b = fold_bits(0x1234 << 40, 16)
        assert a != b

    @given(u64)
    def test_identity_when_wide_enough(self, value):
        assert fold_bits(value, 64) == value
