"""Unit tests for the LUT function units."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fixedpoint import (
    ErfLUT,
    ExpLUT,
    FunctionLUT,
    ReciprocalLUT,
    RsqrtLUT,
)


class TestFunctionLUT:
    def test_entries_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FunctionLUT(fn=np.exp, lo=0, hi=1, entries=100)

    def test_interval_must_be_nonempty(self):
        with pytest.raises(ValueError):
            FunctionLUT(fn=np.exp, lo=1.0, hi=1.0)

    def test_exact_at_sample_points(self):
        lut = FunctionLUT(fn=lambda x: x * 2, lo=0, hi=1, entries=16)
        xs = np.linspace(0, 1, 16)
        assert np.allclose(lut(xs), xs * 2)

    def test_clamps_out_of_range(self):
        lut = FunctionLUT(fn=lambda x: x, lo=0.0, hi=1.0, entries=16)
        assert lut(np.array([-5.0]))[0] == 0.0
        assert lut(np.array([5.0]))[0] == 1.0

    def test_interpolation_better_than_nearest(self):
        near = FunctionLUT(fn=np.exp, lo=-4, hi=0, entries=64)
        interp = FunctionLUT(fn=np.exp, lo=-4, hi=0, entries=64,
                             interpolate=True)
        assert interp.max_error() <= near.max_error()

    def test_vectorized_shapes(self):
        lut = ExpLUT()
        x = np.zeros((4, 7))
        assert lut(x).shape == (4, 7)

    @given(st.integers(4, 10))
    def test_error_shrinks_with_entries(self, log_entries):
        small = FunctionLUT(fn=np.exp, lo=-8, hi=0, entries=2 ** log_entries)
        big = FunctionLUT(fn=np.exp, lo=-8, hi=0,
                          entries=2 ** (log_entries + 1))
        assert big.max_error() <= small.max_error() * 1.01


class TestSpecificLUTs:
    def test_exp_lut_accuracy_softmax_grade(self):
        """512-entry exp table must stay under half an 8-bit prob LSB."""
        lut = ExpLUT(entries=512)
        assert lut.max_error() < 1 / 64

    def test_exp_lut_at_zero(self):
        assert ExpLUT()(np.array([0.0]))[0] == pytest.approx(1.0, abs=1e-6)

    def test_reciprocal_requires_positive_lo(self):
        with pytest.raises(ValueError):
            ReciprocalLUT(lo=0.0)

    def test_reciprocal_accuracy(self):
        lut = ReciprocalLUT(lo=1.0, hi=64.0, entries=1024)
        xs = np.linspace(1.0, 64.0, 999)
        assert np.max(np.abs(lut(xs) - 1 / xs)) < 0.01

    def test_rsqrt_requires_positive_lo(self):
        with pytest.raises(ValueError):
            RsqrtLUT(lo=-1.0)

    def test_rsqrt_accuracy_near_one(self):
        lut = RsqrtLUT(lo=0.5, hi=4.0, entries=1024)
        xs = np.linspace(0.5, 4.0, 777)
        assert np.max(np.abs(lut(xs) - 1 / np.sqrt(xs))) < 5e-3

    def test_erf_lut_symmetry(self):
        lut = ErfLUT(entries=512)
        xs = np.linspace(-3, 3, 101)
        assert np.allclose(lut(xs), -lut(-xs), atol=2e-2)

