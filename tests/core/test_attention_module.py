"""Unit tests for the attention module (functional, cycles, resources)."""

import numpy as np
import pytest

from repro.core import DatapathFormats
from repro.core.attention_module import AttentionModule
from repro.core.engines import qk_loop_nest, reduction_passes
from repro.core.quantized import QuantizedEncoder
from repro.fixedpoint import FxTensor
from repro.hls import schedule_loop
from repro.isa import SynthParams
from repro.nn import TransformerConfig, build_encoder

CFG = TransformerConfig("am", d_model=64, num_heads=2, num_layers=1, seq_len=16)
SYNTH = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=2,
                    max_d_model=64, max_seq_len=32, seq_chunk=16)


@pytest.fixture(scope="module")
def setup():
    enc = build_encoder(CFG, seed=3)
    fmts = DatapathFormats.fix16()
    module = AttentionModule(SYNTH, fmts)
    q = QuantizedEncoder.from_encoder(enc, fmts)
    rng = np.random.default_rng(0)
    x = FxTensor.from_float(rng.normal(0, 0.5, (16, 64)), fmts.activation)
    return module, q.layers[0], x


class TestFunctional:
    def test_head_trace_shapes(self, setup):
        module, layer, x = setup
        t = module.forward_head(x, layer, head=0)
        assert t.q.raw.shape == (16, 32)
        assert t.scores.raw.shape == (16, 16)
        assert t.sv.raw.shape == (16, 32)

    def test_probs_are_probabilities(self, setup):
        module, layer, x = setup
        t = module.forward_head(x, layer, head=0)
        p = t.probs.to_float()
        assert np.all(p >= 0)
        assert np.all(np.abs(p.sum(axis=1) - 1) < 0.05)

    def test_concat_matches_reference(self, setup):
        """Fixed-point concat output tracks the float reference computed
        from the dequantized weights."""
        module, layer, x = setup
        concat, _ = module.forward(x, layer)
        ref = module.reference_concat(x, layer)
        err = np.abs(concat.to_float() - ref)
        assert err.max() < 0.05  # fix16 datapath

    def test_paper_alg2_scaling_differs(self, setup):
        _, layer, x = setup
        m1 = AttentionModule(SYNTH, DatapathFormats.fix16(),
                             scale_mode="sqrt_dk")
        m2 = AttentionModule(SYNTH, DatapathFormats.fix16(),
                             scale_mode="paper_alg2")
        a = m1.forward_head(x, layer, 0).scores.to_float()
        b = m2.forward_head(x, layer, 0).scores.to_float()
        assert not np.allclose(a, b)


class TestCycles:
    def test_qkv_scales_with_tiles(self):
        module = AttentionModule(SynthParams(), DatapathFormats.fix8())
        c768 = module.compute_cycles(64, 768, 8)
        c384 = module.compute_cycles(64, 384, 8)
        assert c768["qkv"] > c384["qkv"]

    def test_attention_quadratic_in_chunks(self):
        module = AttentionModule(SynthParams(), DatapathFormats.fix8())
        c64 = module.compute_cycles(64, 768, 8)
        c128 = module.compute_cycles(128, 768, 8)
        # QK iterates chunk pairs: 2 chunks → 4x the per-pair cost.
        assert c128["qk"] >= 3.5 * c64["qk"]

    def test_fewer_heads_cost_more_per_head(self):
        """dk doubles when h halves → QKV middle loop lengthens; the
        measured Table I trend (tests 1-3)."""
        module = AttentionModule(SynthParams(), DatapathFormats.fix8())
        h8 = module.compute_cycles(64, 768, 8)
        h2 = module.compute_cycles(64, 768, 2)
        assert h2["total"] > h8["total"]

    @pytest.mark.parametrize("heads, passes", [(2, 1), (1, 2)])
    def test_qk_runs_one_pass_per_synthesized_head_width(self, heads,
                                                         passes):
        """SYNTH holds 32-wide heads: a 64-wide runtime head folds its
        QK reduction through the engine twice."""
        module = AttentionModule(SYNTH, DatapathFormats.fix8())
        assert reduction_passes(64 // heads, 32)[0] == passes
        qk = schedule_loop(qk_loop_nest(16, 16, 32,
                                        reduction_passes=passes)).cycles
        assert module.compute_cycles(16, 64, heads)["qk"] == qk

    def test_decode_qk_folds_oversized_heads(self):
        module = AttentionModule(SYNTH, DatapathFormats.fix8())
        qk = schedule_loop(qk_loop_nest(1, 10, 32,
                                        reduction_passes=2)).cycles
        assert module.decode_compute_cycles(10, 64, 1)["qk"] == qk

    def test_byte_accounting(self):
        module = AttentionModule(SynthParams(), DatapathFormats.fix8())
        assert module.weight_bytes_per_tile(768, 8) == 3 * 96 * 64
        assert module.input_bytes_per_tile(64) == 64 * 64


class TestResources:
    def test_published_dsp_budget(self):
        """8 heads x (192 QKV + 96 QK + 64 SV + 2 softmax) = 2832."""
        module = AttentionModule(SynthParams(), DatapathFormats.fix8())
        est = module.resources()
        assert est.dsps == 8 * (192 + 96 + 64 + 2)

    def test_timing_paths_cover_engines(self):
        module = AttentionModule(SynthParams(), DatapathFormats.fix8())
        names = {p.name for p in module.timing_paths()}
        assert {"qkv_ce", "qk_ce", "sv_ce"} <= names
