"""Unit + property tests for engine building blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engines import (
    DatapathFormats,
    add_bias_and_requantize,
    ffn_loop_nest,
    qk_loop_nest,
    qkv_loop_nest,
    reduction_passes,
    softmax_loop_nest,
    sv_loop_nest,
    tiled_fx_matmul_2d,
    tiled_fx_matmul_reduction,
)
from repro.fixedpoint import FxTensor, QFormat
from repro.hls import estimate_loop_resources, schedule_loop

Q84 = QFormat(8, 4)


class TestFormats:
    def test_fix8_widths(self):
        f = DatapathFormats.fix8()
        assert f.weight_bits == 8
        assert f.activation.total_bits == 8

    def test_fix16_widths(self):
        f = DatapathFormats.fix16()
        assert f.weight_bits == 16
        assert f.qkv.total_bits == 16


class TestTiledMatmuls:
    @settings(max_examples=30)
    @given(st.integers(1, 12), st.integers(1, 40), st.integers(1, 12),
           st.integers(1, 16))
    def test_reduction_tiling_bit_exact(self, sl, d, dk, tile):
        rng = np.random.default_rng(7)
        x = FxTensor(rng.integers(-128, 128, (sl, d)), Q84)
        w = FxTensor(rng.integers(-128, 128, (d, dk)), Q84)
        out = tiled_fx_matmul_reduction(x, w, tile)
        assert np.array_equal(out.raw, x.raw @ w.raw)

    @settings(max_examples=30)
    @given(st.integers(1, 8), st.integers(1, 32), st.integers(1, 32),
           st.integers(1, 12), st.integers(1, 12))
    def test_2d_tiling_bit_exact(self, sl, d_in, d_out, tr, tc):
        rng = np.random.default_rng(8)
        x = FxTensor(rng.integers(-128, 128, (sl, d_in)), Q84)
        w = FxTensor(rng.integers(-128, 128, (d_in, d_out)), Q84)
        out = tiled_fx_matmul_2d(x, w, tr, tc)
        assert np.array_equal(out.raw, x.raw @ w.raw)

    @settings(max_examples=30)
    @given(st.integers(1, 6), st.integers(1, 24), st.integers(1, 6),
           st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_matches_float_matmul(self, sl, d, dk, tile, seed):
        """Mixed operand formats: the exact integer result, read in
        its accumulator format, is the float product of the
        dequantized operands."""
        rng = np.random.default_rng(seed)
        x = FxTensor(rng.integers(-128, 128, (sl, d)), Q84)
        w = FxTensor(rng.integers(-128, 128, (d, dk)), QFormat(8, 5))
        out = tiled_fx_matmul_reduction(x, w, tile)
        assert np.allclose(out.to_float(), x.to_float() @ w.to_float(),
                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("d, guard", [(1, 1), (2, 1), (256, 8),
                                          (768, 10)])
    def test_accumulator_adds_widths_and_guard_bits(self, d, guard):
        """Product width plus ``ceil(log2(d))`` guard bits (one at
        least); the fraction is the operands' sum."""
        x = FxTensor(np.zeros((1, d), dtype=np.int64), Q84)
        w = FxTensor(np.zeros((d, 1), dtype=np.int64), QFormat(8, 5))
        for out in (tiled_fx_matmul_reduction(x, w, 64),
                    tiled_fx_matmul_2d(x, w, 64, 1)):
            assert out.fmt == QFormat(16 + guard, 9)

    def test_mismatched_reduction_rejected(self):
        x = FxTensor(np.zeros((2, 3), dtype=np.int64), Q84)
        w = FxTensor(np.zeros((4, 2), dtype=np.int64), Q84)
        with pytest.raises(ValueError):
            tiled_fx_matmul_reduction(x, w, 2)
        with pytest.raises(ValueError):
            tiled_fx_matmul_2d(x, w, 2, 2)

    @pytest.mark.parametrize("d", [1, 64, 768, 3072])
    @pytest.mark.parametrize("tiled", ["reduction", "2d"])
    def test_worst_case_dot_product_never_saturates(self, d, tiled):
        """The accumulator's guard bits hold a full-scale ``d``-long
        reduction: all-(-128) products at the positive end and
        (-128)·127 at the negative end come out exact."""
        x = FxTensor(np.full((1, d), -128, dtype=np.int64), Q84)
        w = FxTensor(np.array([[-128, 127]] * d, dtype=np.int64), Q84)
        if tiled == "reduction":
            out = tiled_fx_matmul_reduction(x, w, 64)
        else:
            out = tiled_fx_matmul_2d(x, w, 64, 1)
        assert out.raw.tolist() == [[128 * 128 * d, -128 * 127 * d]]

    def test_bias_add_requantize(self):
        x = FxTensor(np.array([[10, 20]]), Q84)
        w = FxTensor(np.eye(2, dtype=np.int64) * 16, Q84)  # identity
        acc = tiled_fx_matmul_reduction(x, w, 1)
        bias = FxTensor.from_float(np.array([0.5, -0.5]), QFormat(16, 8))
        out = add_bias_and_requantize(acc, bias, Q84)
        expect = x.to_float() + np.array([0.5, -0.5])
        assert np.allclose(out.to_float(), expect, atol=Q84.scale)


class TestFig5WorkedExample:
    """The 2x3 by 3x6 reduction-tiled product drawn in Fig. 5."""

    def setup_method(self):
        rng = np.random.default_rng(5)
        self.x = FxTensor(rng.integers(-4, 5, size=(2, 3)), Q84)
        self.w = FxTensor(rng.integers(-4, 5, size=(3, 6)), Q84)

    @pytest.mark.parametrize("tile", [1, 2, 3, 4])
    def test_every_tile_width_is_bit_exact(self, tile):
        # Width 1 is the figure's extreme; 2 is ragged, 4 overhangs.
        out = tiled_fx_matmul_reduction(self.x, self.w, tile)
        assert np.array_equal(out.raw, self.x.raw @ self.w.raw)

    def test_partial_products_accumulate(self):
        """The first tile's partial product X[:, 0]·W[0, :] plus the
        remaining tiles' is the whole product."""
        first = tiled_fx_matmul_reduction(
            FxTensor(self.x.raw[:, :1], Q84),
            FxTensor(self.w.raw[:1, :], Q84), 1)
        rest = tiled_fx_matmul_reduction(
            FxTensor(self.x.raw[:, 1:], Q84),
            FxTensor(self.w.raw[1:, :], Q84), 1)
        assert np.array_equal(first.raw + rest.raw,
                              self.x.raw @ self.w.raw)


class TestFig6WorkedExample:
    """The 2x4 by 4x6 two-dimensionally tiled product drawn in Fig. 6."""

    def setup_method(self):
        rng = np.random.default_rng(6)
        self.x = FxTensor(rng.integers(-4, 5, size=(2, 4)), Q84)
        self.w = FxTensor(rng.integers(-4, 5, size=(4, 6)), Q84)

    @pytest.mark.parametrize("tile_cols", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("tile_rows", [1, 2, 3, 4])
    def test_every_tile_shape_is_bit_exact(self, tile_rows, tile_cols):
        out = tiled_fx_matmul_2d(self.x, self.w, tile_rows, tile_cols)
        assert np.array_equal(out.raw, self.x.raw @ self.w.raw)

    def test_output_column_tile_sums_its_row_tiles(self):
        """'Output Column = sum over row tiles': the first 3-wide output
        column tile is its two 2-high reduction tiles added."""
        x, w = self.x.raw, self.w.raw
        col0 = x[:, :2] @ w[:2, :3] + x[:, 2:] @ w[2:, :3]
        out = tiled_fx_matmul_2d(self.x, self.w, 2, 3)
        assert np.array_equal(out.raw[:, :3], col0)


class TestLoopNests:
    def test_qkv_pe_count(self):
        """Algorithm 1 with TS=64 yields 3x64 = 192 PEs per head."""
        nest = qkv_loop_nest(seq_len=64, d_k=96, ts_mha=64)
        assert estimate_loop_resources(nest).dsps == 192

    def test_qk_pe_count(self):
        nest = qk_loop_nest(64, 64, d_k_unroll=96)
        assert estimate_loop_resources(nest).dsps == 96

    def test_sv_pe_count(self):
        nest = sv_loop_nest(64, 96, sl_unroll=64)
        assert estimate_loop_resources(nest).dsps == 64

    def test_ffn_pe_counts(self):
        assert estimate_loop_resources(
            ffn_loop_nest(64, 128, 128)).dsps == 128
        assert estimate_loop_resources(
            ffn_loop_nest(64, 128, 512)).dsps == 512

    def test_qkv_cycles_scale_with_dk(self):
        fast = schedule_loop(qkv_loop_nest(64, 48, 64)).cycles
        slow = schedule_loop(qkv_loop_nest(64, 96, 64)).cycles
        assert slow > fast

    def test_qk_reduction_passes_multiply_cycles(self):
        one = schedule_loop(qk_loop_nest(64, 64, 96, reduction_passes=1))
        four = schedule_loop(qk_loop_nest(64, 64, 96, reduction_passes=4))
        assert four.cycles > 3 * one.cycles

    def test_softmax_has_three_passes(self):
        nest = softmax_loop_nest(rows=8, row_len=16)
        sched = schedule_loop(nest)
        # at least 3 passes of 16 per row
        assert sched.cycles >= 8 * 3 * 16


class TestReductionPasses:
    def test_exact_fit(self):
        assert reduction_passes(96, 96) == (1, 96)

    def test_oversized_runtime_dk(self):
        assert reduction_passes(384, 96) == (4, 384)

    def test_undersized_still_one_pass(self):
        assert reduction_passes(32, 96) == (1, 96)

    def test_ragged_extent_pads_the_last_pass(self):
        assert reduction_passes(65, 64) == (2, 128)

    def test_validation(self):
        with pytest.raises(ValueError):
            reduction_passes(0, 96)
