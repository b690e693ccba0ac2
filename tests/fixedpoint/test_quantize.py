"""Unit + property tests for quantize/dequantize/requantize."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.fixedpoint import (
    QFormat,
    Rounding,
    calibrate_format,
    dequantize,
    quantize,
    requantize,
    saturate,
)

Q84 = QFormat(8, 4)


class TestQuantizeBasics:
    def test_zero_maps_to_zero(self):
        assert quantize(np.array(0.0), Q84) == 0

    def test_one_lsb(self):
        assert quantize(np.array(Q84.scale), Q84) == 1

    def test_saturation_high(self):
        assert quantize(np.array(1e9), Q84) == Q84.int_max

    def test_saturation_low(self):
        assert quantize(np.array(-1e9), Q84) == Q84.int_min

    def test_round_half_even(self):
        # 0.5 LSB above an even code rounds down (nearest even).
        val = (2 + 0.5) * Q84.scale
        assert quantize(np.array(val), Q84) == 2
        val = (3 + 0.5) * Q84.scale
        assert quantize(np.array(val), Q84) == 4

    def test_truncate_mode_floors(self):
        val = 2.9 * Q84.scale
        assert quantize(np.array(val), Q84, Rounding.TRUNCATE) == 2
        assert quantize(np.array(-val), Q84, Rounding.TRUNCATE) == -3

    def test_vectorized_shape_preserved(self):
        x = np.zeros((3, 5, 7))
        assert quantize(x, Q84).shape == (3, 5, 7)


class TestRoundTrip:
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-7.9, 7.9)))
    def test_roundtrip_within_half_lsb(self, x):
        recon = dequantize(quantize(x, Q84), Q84)
        assert np.all(np.abs(recon - x) <= Q84.scale / 2 + 1e-12)

    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.floats(-1e3, 1e3)))
    def test_roundtrip_idempotent(self, x):
        """Quantizing an already-quantized tensor is the identity."""
        once = quantize(x, Q84)
        twice = quantize(dequantize(once, Q84), Q84)
        assert np.array_equal(once, twice)


class TestRequantize:
    def test_identity_when_same_format(self):
        raw = np.array([1, -5, 100])
        assert np.array_equal(requantize(raw, Q84, Q84), raw)

    def test_upshift_exact(self):
        src, dst = QFormat(8, 2), QFormat(16, 6)
        raw = np.array([3, -7])
        out = requantize(raw, src, dst)
        assert np.array_equal(out, raw * 16)

    def test_downshift_rounds_half_even(self):
        src, dst = QFormat(16, 8), QFormat(8, 4)
        # 40 / 16 = 2.5 → ties to 2 (even); 56 / 16 = 3.5 → 4.
        out = requantize(np.array([40, 56]), src, dst)
        assert out.tolist() == [2, 4]

    def test_downshift_saturates(self):
        src, dst = QFormat(16, 8), QFormat(8, 8)
        out = requantize(np.array([32000]), src, dst)
        assert out == dst.int_max

    def test_truncate_shifts_toward_neg_inf(self):
        src, dst = QFormat(16, 8), QFormat(8, 4)
        out = requantize(np.array([-41]), src, dst, Rounding.TRUNCATE)
        assert out == -3  # floor(-41/16) = -3 (toward -inf)

    @given(hnp.arrays(np.int64, st.integers(1, 32),
                      elements=st.integers(-2**14, 2**14 - 1)),
           st.integers(0, 8))
    def test_requantize_value_preserving(self, raw, shift):
        """Down-then-up requantization deviates by at most one source LSB
        step and never exceeds the value range."""
        src = QFormat(16, 8)
        dst = QFormat(16, 8 - shift)
        down = requantize(raw, src, dst)
        back = requantize(down, dst, src)
        err = np.abs(back - np.clip(raw, dst.int_min << shift,
                                    dst.int_max << shift))
        assert np.all(err <= (1 << shift) // 2 + 1)


class TestSaturateAndCalibrate:
    def test_saturate_clamps_both_sides(self):
        out = saturate(np.array([-1000, 0, 1000]), Q84)
        assert out.tolist() == [Q84.int_min, 0, Q84.int_max]

    def test_calibrate_covers_data(self):
        data = np.array([-3.7, 0.1, 2.9])
        fmt = calibrate_format(data, total_bits=8)
        assert fmt.representable(-3.7)
        assert fmt.representable(2.9)

    def test_calibrate_empty_input(self):
        fmt = calibrate_format(np.array([]), total_bits=8)
        assert fmt.total_bits == 8

    @given(hnp.arrays(np.float64, st.integers(1, 100),
                      elements=st.floats(-1e4, 1e4)))
    def test_calibrated_quantization_error_bounded(self, data):
        fmt = calibrate_format(data, total_bits=8)
        err = dequantize(quantize(data, fmt), fmt) - data
        assert np.max(np.abs(err)) <= fmt.scale / 2 + 1e-9
