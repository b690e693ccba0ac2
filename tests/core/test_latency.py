"""Unit tests for the latency model: composition rules + paper trends."""

import pytest

from repro.core import DatapathFormats
from repro.core.attention_module import AttentionModule
from repro.core.ffn_module import FFNModule
from repro.core.latency import LatencyModel, LatencyOptions
from repro.isa import ResynthesisRequiredError, SynthParams
from repro.memory import AXI4Master
from repro.nn import BERT_VARIANT


def make_model(options=None, synth=None):
    synth = synth or SynthParams()
    fmts = DatapathFormats.fix8()
    return LatencyModel(synth, AttentionModule(synth, fmts),
                        FFNModule(synth, fmts), options)


@pytest.fixture(scope="module")
def model():
    return make_model()


class TestComposition:
    def test_total_at_least_compute(self, model):
        layer = model.layer_cycles(64, 768, 8)
        assert layer.total >= layer.compute_total

    def test_serialized_total_is_compute_plus_loads(self, model):
        layer = model.layer_cycles(64, 768, 8)
        assert layer.total == layer.compute_total + layer.load_total

    def test_double_buffering_strictly_helps(self):
        serial = make_model(LatencyOptions(double_buffered=False))
        overlap = make_model(LatencyOptions(double_buffered=True))
        assert (overlap.layer_cycles(64, 768, 8).total
                < serial.layer_cycles(64, 768, 8).total)

    def test_wider_axi_reduces_load_cycles(self):
        narrow = make_model(LatencyOptions(axi=AXI4Master(data_bits=32)))
        wide = make_model(LatencyOptions(axi=AXI4Master(data_bits=256)))
        assert (wide.layer_cycles(64, 768, 8).load_total
                < narrow.layer_cycles(64, 768, 8).load_total)

    def test_breakdown_keys(self, model):
        layer = model.layer_cycles(64, 768, 8)
        assert set(layer.compute) == {"qkv", "qk", "softmax", "sv",
                                      "ffn1", "ffn2", "ffn3", "ln"}
        assert set(layer.loads) == {"qkv", "ffn1", "ffn2", "ffn3"}


class TestPaperTrends:
    def test_layers_scale_exactly_linearly(self, model):
        r12 = model.evaluate(BERT_VARIANT, 200.0)
        r4 = model.evaluate(BERT_VARIANT.with_(num_layers=4), 200.0)
        assert r12.total_cycles == 3 * r4.total_cycles

    def test_d_model_scales_roughly_linearly(self, model):
        """Tests 6-7: latency(512)/latency(768) ≈ 2/3, not (2/3)²."""
        r768 = model.evaluate(BERT_VARIANT, 200.0)
        r512 = model.evaluate(
            BERT_VARIANT.with_(d_model=512, d_ff=2048), 200.0)
        ratio = r512.latency_ms / r768.latency_ms
        assert 0.55 < ratio < 0.72  # linear ≈ 0.67; quadratic would be 0.44

    def test_head_count_weakly_affects_latency(self, model):
        """Tests 1-3: halving heads costs only a few percent."""
        r8 = model.evaluate(BERT_VARIANT, 200.0)
        r2 = model.evaluate(BERT_VARIANT.with_(num_heads=2), 200.0)
        assert r2.latency_ms > r8.latency_ms
        assert r2.latency_ms < 1.15 * r8.latency_ms

    def test_seq_len_scaling(self, model):
        """Tests 8-9: SL=128 roughly doubles; SL=32 lands above half
        (loads are SL-independent)."""
        r64 = model.evaluate(BERT_VARIANT, 200.0)
        r128 = model.evaluate(BERT_VARIANT.with_(seq_len=128), 200.0)
        r32 = model.evaluate(BERT_VARIANT.with_(seq_len=32), 200.0)
        assert 1.6 < r128.latency_ms / r64.latency_ms < 2.1
        assert 0.5 < r32.latency_ms / r64.latency_ms < 0.75

    def test_ffn_dominates_mha(self, model):
        """The paper's premise: FFNs are "the most time- and
        resource-intensive components"."""
        layer = model.layer_cycles(64, 768, 8)
        ffn = layer.compute["ffn1"] + layer.compute["ffn2"] + layer.compute["ffn3"]
        mha = (layer.compute["qkv"] + layer.compute["qk"]
               + layer.compute["softmax"] + layer.compute["sv"])
        assert ffn > 5 * mha


class TestReporting:
    def test_latency_units(self, model):
        rep = model.evaluate(BERT_VARIANT, 200.0)
        assert rep.latency_ms == pytest.approx(rep.total_cycles / 200e3)
        assert rep.latency_s == pytest.approx(rep.latency_ms / 1e3)

    def test_breakdown_ms_sums_to_total(self, model):
        rep = model.evaluate(BERT_VARIANT, 200.0)
        assert sum(rep.breakdown_ms().values()) == pytest.approx(
            rep.latency_ms, rel=1e-9)

    def test_evaluate_validates_maxima(self, model):
        with pytest.raises(ResynthesisRequiredError):
            model.evaluate(BERT_VARIANT.with_(d_model=1536, d_ff=6144,
                                              num_heads=8), 200.0)


class TestMemo:
    """Per-instance memo of the pure cycle model."""

    def test_evaluate_hit_is_first_result_and_matches_fresh(self):
        model = make_model()
        first = model.evaluate(BERT_VARIANT, 200.0)
        assert model.evaluate(BERT_VARIANT, 200.0) is first
        assert model.evaluate(BERT_VARIANT.with_(), 200.0) is first
        assert make_model().evaluate(BERT_VARIANT, 200.0) == first
        other_clock = model.evaluate(BERT_VARIANT, 100.0)
        assert other_clock is not first
        assert other_clock.latency_ms == pytest.approx(2 * first.latency_ms)

    def test_decode_hit_is_first_result_and_matches_fresh(self):
        model = make_model()
        first = model.decode_layer_cycles(40, 768, 8)
        assert model.decode_layer_cycles(40, 768, 8) is first
        assert make_model().decode_layer_cycles(40, 768, 8) == first
        assert model.decode_layer_cycles(41, 768, 8) != first

    def test_generation_report_unchanged_by_warm_memo(self):
        model = make_model()
        cold = make_model().generation_report(BERT_VARIANT, 16, 16, 200.0)
        model.generation_report(BERT_VARIANT, 8, 32, 200.0)  # warm up
        warm = model.generation_report(BERT_VARIANT, 16, 16, 200.0)
        assert warm == cold

    def test_over_limit_config_raises_on_every_call(self):
        model = make_model()
        too_long = BERT_VARIANT.with_(seq_len=model.synth.max_seq_len + 1)
        for _ in range(3):
            with pytest.raises(ResynthesisRequiredError):
                model.evaluate(too_long, 200.0)
        assert model.evaluate(BERT_VARIANT, 200.0) is model.evaluate(
            BERT_VARIANT, 200.0)

    def test_reports_are_frozen(self):
        from dataclasses import FrozenInstanceError

        report = make_model().evaluate(BERT_VARIANT, 200.0)
        with pytest.raises(FrozenInstanceError):
            report.clock_mhz = 1.0
        with pytest.raises(FrozenInstanceError):
            report.layer.total = 0
