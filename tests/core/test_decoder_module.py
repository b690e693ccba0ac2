"""Unit tests for the decoder acceleration extension."""

import numpy as np
import pytest

from repro.core import DatapathFormats, DecoderModule, QuantizedDecoder
from repro.core.engines import qk_loop_nest
from repro.fixedpoint import FxTensor
from repro.hls import schedule_loop
from repro.isa import SynthParams
from repro.nn import Decoder

SYNTH = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=2,
                    max_d_model=64, max_seq_len=32, seq_chunk=16)
D, H, TGT, MEM = 64, 2, 12, 16


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(31)
    golden = Decoder.initialize(rng, num_layers=2, d_model=D, num_heads=H)
    fmts = DatapathFormats.fix16()
    module = DecoderModule(SYNTH, fmts)
    weights = QuantizedDecoder.from_decoder(golden, fmts)
    gen = np.random.default_rng(32)
    x = FxTensor.from_float(gen.normal(0, 0.5, (TGT, D)), fmts.activation)
    mem = FxTensor.from_float(gen.normal(0, 0.5, (MEM, D)), fmts.activation)
    return module, weights, golden, x, mem


class TestFunctional:
    def test_output_shape(self, setup):
        module, weights, _, x, mem = setup
        out = module.forward(x, mem, weights)
        assert out.raw.shape == (TGT, D)

    def test_tracks_golden_decoder(self, setup):
        """fix16 decoder datapath vs the float golden decoder."""
        module, weights, golden, x, mem = setup
        out = module.forward(x, mem, weights).to_float()
        ref = golden(x.to_float(), mem.to_float())
        rms = np.sqrt(np.mean((out - ref) ** 2))
        assert rms < 0.05

    def test_causality_in_fixed_point(self, setup):
        """The integer mask unit enforces causality exactly."""
        module, weights, _, x, mem = setup
        y1 = module.forward_layer(x, mem, weights.layers[0])
        raw2 = x.raw.copy()
        raw2[8:] = np.clip(raw2[8:] + 7, x.fmt.int_min, x.fmt.int_max)
        x2 = FxTensor(raw2, x.fmt)
        y2 = module.forward_layer(x2, mem, weights.layers[0])
        assert np.array_equal(y1.raw[:8], y2.raw[:8])

    def test_memory_influences_output(self, setup):
        module, weights, _, x, mem = setup
        mem2 = FxTensor(np.clip(mem.raw + 5, mem.fmt.int_min,
                                mem.fmt.int_max), mem.fmt)
        y1 = module.forward(x, mem, weights)
        y2 = module.forward(x, mem2, weights)
        assert not np.array_equal(y1.raw, y2.raw)

    def test_width_mismatch_rejected(self, setup):
        module, weights, _, x, _ = setup
        bad_mem = FxTensor(np.zeros((MEM, 32), dtype=np.int64), x.fmt)
        with pytest.raises(ValueError):
            module.forward_layer(x, bad_mem, weights.layers[0])


class TestCycles:
    def test_decoder_layer_costs_more_than_encoder(self):
        from repro.core.attention_module import AttentionModule
        from repro.core.ffn_module import FFNModule

        synth = SynthParams()
        fmts = DatapathFormats.fix8()
        dec = DecoderModule(synth, fmts)
        enc_att = AttentionModule(synth, fmts).compute_cycles(64, 768, 8)
        enc_ffn = FFNModule(synth, fmts).compute_cycles(64, 768)
        enc_total = enc_att["total"] + enc_ffn["total"]
        dec_total = dec.compute_cycles(64, 64, 768, 8)["total"]
        assert dec_total > enc_total

    def test_cross_attention_scales_with_memory_length(self):
        dec = DecoderModule(SynthParams(), DatapathFormats.fix8())
        short = dec.compute_cycles(64, 32, 768, 8)
        long = dec.compute_cycles(64, 128, 768, 8)
        assert long["cross_kv"] > short["cross_kv"]
        assert long["cross_qk"] > short["cross_qk"]
        assert long["self_attention"] == short["self_attention"]

    def test_cross_qk_folds_oversized_heads(self):
        """One 64-wide head on 32-wide synthesized heads: the cross
        score sweep runs its reduction twice."""
        module = DecoderModule(SYNTH, DatapathFormats.fix8())
        qk = schedule_loop(qk_loop_nest(TGT, MEM, 32,
                                        reduction_passes=2)).cycles
        assert module.compute_cycles(TGT, MEM, D, 1)["cross_qk"] == qk

    def test_breakdown_sums(self):
        dec = DecoderModule(SynthParams(), DatapathFormats.fix8())
        c = dec.compute_cycles(64, 64, 768, 8)
        parts = [v for k, v in c.items() if k != "total"]
        assert c["total"] == sum(parts)


class TestResources:
    def test_incremental_resources_are_small(self):
        """Decoder support reuses the encoder engines: the increment is
        one LN unit + mask comparators, well under 1% of the design."""
        dec = DecoderModule(SynthParams(), DatapathFormats.fix8())
        extra = dec.resources()
        assert extra.dsps <= 8
        assert extra.luts < 10_000
