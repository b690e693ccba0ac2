"""Unit tests for Q-format descriptors."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint import QFormat


class TestBounds:
    def test_signed_8bit_range(self):
        fmt = QFormat(8, 0)
        assert fmt.int_min == -128
        assert fmt.int_max == 127

    def test_unsigned_range(self):
        fmt = QFormat(8, 0, signed=False)
        assert fmt.int_min == 0
        assert fmt.int_max == 255

    def test_real_bounds_follow_scale(self):
        fmt = QFormat(8, 4)
        assert fmt.scale == pytest.approx(1 / 16)
        assert fmt.max_value == pytest.approx(127 / 16)
        assert fmt.min_value == pytest.approx(-8.0)

    def test_negative_frac_bits_scale_up(self):
        fmt = QFormat(8, -2)
        assert fmt.scale == 4.0
        assert fmt.max_value == 127 * 4

    def test_invalid_widths_rejected(self):
        with pytest.raises(ValueError):
            QFormat(0, 0)
        with pytest.raises(ValueError):
            QFormat(1, 0, signed=True)

    def test_representable(self):
        fmt = QFormat(8, 4)
        assert fmt.representable(0.0)
        assert fmt.representable(fmt.max_value)
        assert not fmt.representable(fmt.max_value + 1.0)
        assert not fmt.representable(fmt.min_value - 0.1)


class TestForRange:
    def test_unit_range_uses_max_fraction(self):
        fmt = QFormat.for_range(-1.0, 1.0, total_bits=8)
        assert fmt.representable(-1.0)
        assert fmt.representable(1.0)
        # Should give at least 6 fractional bits for [-1, 1].
        assert fmt.frac_bits >= 6

    def test_large_range(self):
        fmt = QFormat.for_range(-100.0, 100.0, total_bits=8)
        assert fmt.representable(100.0)
        assert fmt.representable(-100.0)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            QFormat.for_range(1.0, -1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_for_range_always_covers(self, hi):
        fmt = QFormat.for_range(-hi, hi, total_bits=8)
        assert fmt.representable(hi)
        assert fmt.representable(-hi)

    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.integers(min_value=4, max_value=24))
    def test_finer_format_does_not_exist(self, hi, bits):
        """for_range picks the *finest* covering format."""
        fmt = QFormat.for_range(-hi, hi, total_bits=bits)
        finer = QFormat(bits, fmt.frac_bits + 1)
        assert not (finer.representable(hi) and finer.representable(-hi))
