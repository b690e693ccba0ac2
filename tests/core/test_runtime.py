"""Unit tests for the runtime layer (executor + session)."""

import numpy as np
import pytest

from repro import ProTEA, ResynthesisRequiredError
from repro.core.runtime import ProgramExecutor, RuntimeSession, TileNotResidentError
from repro.fixedpoint import FxTensor
from repro.isa import Instruction, Opcode
from repro.nn import build_encoder


class TestProgramExecutor:
    def test_bit_identical_to_module_path(self, small_accel, small_input):
        fx = FxTensor.from_float(small_input, small_accel.formats.activation)
        y_mod = small_accel.run_fx(fx)
        y_isa = ProgramExecutor(small_accel, small_accel.weights).run(fx)
        assert np.array_equal(y_mod.raw, y_isa.raw)

    def test_bit_identical_fix16(self, small_accel_fix16, small_input):
        fx = FxTensor.from_float(small_input,
                                 small_accel_fix16.formats.activation)
        y_mod = small_accel_fix16.run_fx(fx)
        y_isa = ProgramExecutor(
            small_accel_fix16, small_accel_fix16.weights).run(fx)
        assert np.array_equal(y_mod.raw, y_isa.raw)

    def test_ragged_and_padded_dimensions(self, small_synth):
        """d_model smaller than TS_FFN and not a multiple of TS_MHA."""
        from repro.nn import TransformerConfig

        cfg = TransformerConfig("ragged", d_model=48, num_heads=2,
                                num_layers=1, seq_len=8)
        enc = build_encoder(cfg, seed=11)
        accel = ProTEA.synthesize(small_synth, enforce_fit=False)
        accel.program(cfg).load_weights(enc)
        x = FxTensor.from_float(
            np.random.default_rng(2).normal(0, 0.5, (8, 48)),
            accel.formats.activation)
        y_mod = accel.run_fx(x)
        y_isa = ProgramExecutor(accel, accel.weights).run(x)
        assert np.array_equal(y_mod.raw, y_isa.raw)

    def test_unloaded_tile_raises(self, small_accel, small_input):
        """Running an engine on a tile that was never loaded is a
        controller bug the executor must catch."""
        execu = ProgramExecutor(small_accel, small_accel.weights)
        execu._state = None
        fx = FxTensor.from_float(small_input, small_accel.formats.activation)
        # Craft a broken program: RUN_QKV without LOAD_QKV_WEIGHTS.
        from repro.core.runtime import _LayerState

        execu._state = _LayerState(x=fx)
        execu._layer_idx = 0
        with pytest.raises(TileNotResidentError):
            execu._run_qkv(Instruction(Opcode.RUN_QKV, layer=0, tile=0))


class TestRuntimeSession:
    def test_hop_between_models_without_resynthesis(self, default_accel):
        from repro.nn import get_model, table1_tests

        session = RuntimeSession(default_accel)
        latencies = []
        for cfg in list(table1_tests().values())[:3]:
            latencies.append(session.latency_ms(cfg))
        latencies.append(session.latency_ms(get_model("model2-lhc-trigger")))
        assert session.reprogram_count == 4
        assert session.resynthesis_count == 0
        assert len(set(latencies)) == 4  # different workloads, different ms

    def test_history_recorded(self, default_accel):
        from repro.nn import BERT_VARIANT

        session = RuntimeSession(default_accel)
        session.deploy(BERT_VARIANT)
        assert session.history == [BERT_VARIANT]

    def test_oversized_model_still_requires_resynthesis(self, default_accel):
        from repro.nn import BERT_VARIANT

        session = RuntimeSession(default_accel)
        with pytest.raises(ResynthesisRequiredError):
            session.deploy(BERT_VARIANT.with_(num_layers=24))

    def test_failed_deploy_leaves_no_trace(self, default_accel):
        from repro.nn import BERT_VARIANT

        session = RuntimeSession(default_accel, reprogram_latency_ms=5.0)
        with pytest.raises(ResynthesisRequiredError):
            session.deploy(BERT_VARIANT.with_(seq_len=4096))
        assert session.reprogram_count == 0
        assert session.history == []
        assert session.reprogram_time_ms == 0.0


class TestReprogramLatencyHook:
    def test_default_cost_is_zero(self, default_accel):
        from repro.nn import BERT_VARIANT, get_model

        session = RuntimeSession(default_accel)
        session.deploy(BERT_VARIANT)
        session.deploy(get_model("model2-lhc-trigger"))
        assert session.reprogram_time_ms == 0.0
        assert session.switch_count == 2

    def test_switch_cost_charged_on_workload_change(self, default_accel):
        from repro.nn import BERT_VARIANT, get_model

        session = RuntimeSession(default_accel, reprogram_latency_ms=12.5)
        session.deploy(BERT_VARIANT)  # cold start
        assert session.reprogram_time_ms == 12.5
        # Redeploying the resident workload is free...
        session.deploy(BERT_VARIANT)
        assert session.reprogram_time_ms == 12.5
        assert session.switch_count == 1
        # ...switching to a different one is not.
        other = get_model("model2-lhc-trigger")
        session.deploy(other)
        assert session.reprogram_time_ms == 25.0
        assert session.switch_count == 2
        assert session.reprogram_count == 3  # every deploy still counted

    def test_switch_detected_by_config_equality(self, default_accel):
        from repro.nn import BERT_VARIANT

        session = RuntimeSession(default_accel, reprogram_latency_ms=1.0)
        session.deploy(BERT_VARIANT)
        # Same name, different runtime parameters → still a switch.
        session.deploy(BERT_VARIANT.with_(num_layers=6))
        assert session.switch_count == 2

    def test_resynthesis_count_stays_zero(self, default_accel):
        from repro.nn import table1_tests

        session = RuntimeSession(default_accel, reprogram_latency_ms=3.0)
        for cfg in table1_tests().values():
            session.deploy(cfg)
        assert session.resynthesis_count == 0
        assert session.reprogram_count == 9
        assert session.reprogram_time_ms == pytest.approx(9 * 3.0)
