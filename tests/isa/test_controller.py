"""Unit tests for the config-register file and the resynthesis contract."""

import pytest

from repro.isa import ConfigRegisterFile, ResynthesisRequiredError, SynthParams
from repro.nn import BERT_VARIANT, TransformerConfig


class TestSynthParams:
    def test_published_defaults(self):
        s = SynthParams()
        assert s.ts_mha == 64
        assert s.ts_ffn == 128
        assert s.max_heads == 8
        assert s.max_layers == 12
        assert s.max_d_model == 768

    def test_tile_grid_maxima(self):
        s = SynthParams()
        assert s.tiles_mha_max == 12
        assert s.tiles_ffn_max == 6

    def test_ragged_grid_ceil(self):
        s = SynthParams(ts_ffn=154)
        assert s.tiles_ffn_max == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthParams(ts_mha=0)
        with pytest.raises(ValueError):
            SynthParams(seq_chunk=256, max_seq_len=128)
        with pytest.raises(ValueError):
            SynthParams(max_d_model=770, max_heads=8)


class TestRegisterFile:
    def test_program_bert_variant(self):
        csr = ConfigRegisterFile(SynthParams())
        csr.program(BERT_VARIANT)
        snap = csr.snapshot()
        assert snap == {"num_heads": 8, "num_layers": 12,
                        "d_model": 768, "seq_len": 64}
        assert csr.d_k == 96
        assert csr.tiles_mha == 12
        assert csr.tiles_ffn == 6

    def test_exceeding_maxima_requires_resynthesis(self):
        csr = ConfigRegisterFile(SynthParams())
        too_big = BERT_VARIANT.with_(name="big", num_layers=13)
        with pytest.raises(ResynthesisRequiredError, match="num_layers"):
            csr.program(too_big)

    def test_seq_len_ceiling(self):
        csr = ConfigRegisterFile(SynthParams())
        with pytest.raises(ResynthesisRequiredError):
            csr.write("seq_len", 129)

    def test_non_4x_dff_rejected(self):
        csr = ConfigRegisterFile(SynthParams())
        odd = TransformerConfig("odd", 768, 8, 1, 64, d_ff=1024)
        with pytest.raises(ResynthesisRequiredError, match="4"):
            csr.program(odd)

    def test_programming_costs_axi_cycles(self):
        csr = ConfigRegisterFile(SynthParams())
        csr.program(BERT_VARIANT)
        assert csr.programming_cycles == 4 * csr.axi.write_cycles

    def test_unknown_register(self):
        csr = ConfigRegisterFile(SynthParams())
        with pytest.raises(KeyError):
            csr.write("voltage", 1)

    def test_ctrl_register_not_a_parameter(self):
        csr = ConfigRegisterFile(SynthParams())
        with pytest.raises(ValueError):
            csr.write("ctrl", 1)

    def test_zero_value_rejected(self):
        csr = ConfigRegisterFile(SynthParams())
        with pytest.raises(ValueError):
            csr.write("num_heads", 0)

    @pytest.mark.parametrize("value", [2.5, float("nan"), True, 64.0])
    def test_non_count_value_rejected(self, value):
        """A register holds an int: a float, a NaN or a bool is refused
        before the synthesized limit is consulted, not stored."""
        csr = ConfigRegisterFile(SynthParams())
        with pytest.raises(ValueError, match="seq_len"):
            csr.write("seq_len", value)
        assert csr.seq_len == 0

    def test_d_k_requires_programming(self):
        csr = ConfigRegisterFile(SynthParams())
        with pytest.raises(RuntimeError):
            _ = csr.d_k

    def test_small_d_model_occupies_one_ffn_tile(self):
        csr = ConfigRegisterFile(SynthParams())
        csr.program(TransformerConfig("tiny", 64, 2, 1, 16))
        assert csr.tiles_ffn == 1
