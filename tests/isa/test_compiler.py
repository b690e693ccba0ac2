"""Unit tests for the instruction-stream compiler."""

import pytest

from repro.isa import Opcode, SynthParams, compile_program, program_stats
from repro.nn import BERT_VARIANT, TransformerConfig

SMALL = TransformerConfig("c", d_model=64, num_heads=2, num_layers=2, seq_len=16)
SMALL_SYNTH = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=4,
                          max_d_model=64, max_seq_len=32, seq_chunk=16)


class TestProgramShape:
    def test_ends_with_halt(self):
        prog = compile_program(SMALL, SMALL_SYNTH)
        assert prog[-1].opcode is Opcode.HALT

    def test_configure_prologue(self):
        prog = compile_program(SMALL, SMALL_SYNTH)
        assert [i.opcode for i in prog[:4]] == [Opcode.CONFIGURE] * 4

    def test_qkv_tile_counts(self):
        prog = compile_program(SMALL, SMALL_SYNTH)
        stats = program_stats(prog)
        tiles = 64 // 16
        assert stats.count(Opcode.RUN_QKV) == SMALL.num_layers * tiles
        assert stats.count(Opcode.LOAD_QKV_WEIGHTS) == (
            SMALL.num_layers * tiles * SMALL.num_heads)

    def test_attention_per_head(self):
        stats = program_stats(compile_program(SMALL, SMALL_SYNTH))
        assert stats.count(Opcode.RUN_QK) == 2 * 2
        assert stats.count(Opcode.RUN_SOFTMAX) == 2 * 2
        assert stats.count(Opcode.RUN_SV) == 2 * 2

    def test_ffn_grid_fixed_at_synth_maxima(self):
        """FFN RUN counts use the synthesized output grid, not the
        runtime d_model — the linear-scaling mechanism."""
        stats = program_stats(compile_program(SMALL, SMALL_SYNTH))
        t_in = 2       # ceil(64/32)
        t_out = 2      # ceil(max_d 64 / 32)
        per_layer_ffn1 = t_in * t_out
        assert stats.count(Opcode.RUN_FFN1) == 2 * per_layer_ffn1
        assert stats.count(Opcode.RUN_FFN2) == 2 * t_in * 4 * t_out

    def test_ffn_tiles_column_outer_reduction_inner(self):
        """Fig. 6: tile ``c * t_in + r`` runs output-column tile ``c``,
        reduction tile ``r``, so one layer's RUN_FFN1 indices count
        ``0..t_in*t_out-1`` in order, each after its own weight load."""
        prog = compile_program(SMALL, SMALL_SYNTH)
        t_in = t_out = 2  # ceil(64/32), ceil(max_d 64 / 32)
        for layer in range(SMALL.num_layers):
            runs = [i.tile for i in prog if i.opcode is Opcode.RUN_FFN1
                    and i.layer == layer]
            assert runs == list(range(t_in * t_out))
        for prev, inst in zip(prog, prog[1:]):
            if inst.opcode is Opcode.RUN_FFN1:
                assert prev.opcode is Opcode.LOAD_FFN_WEIGHTS
                assert (prev.tile, prev.arg) == (inst.tile, 1)

    def test_loads_only_for_real_tiles(self):
        """With runtime d_model < synthesized max, some output tiles
        have no real weights and must not be loaded."""
        cfg = TransformerConfig("half", d_model=32, num_heads=2,
                                num_layers=1, seq_len=16)
        stats = program_stats(compile_program(cfg, SMALL_SYNTH))
        assert stats.count(Opcode.LOAD_FFN_WEIGHTS) < stats.count(
            Opcode.RUN_FFN1) + stats.count(Opcode.RUN_FFN2) + stats.count(
            Opcode.RUN_FFN3)

    def test_layer_norm_twice_per_layer(self):
        stats = program_stats(compile_program(SMALL, SMALL_SYNTH))
        assert stats.count(Opcode.RUN_LN1) == 2
        assert stats.count(Opcode.RUN_LN2) == 2

    def test_program_length_scales_with_layers(self):
        one = len(compile_program(SMALL.with_(num_layers=1), SMALL_SYNTH))
        two = len(compile_program(SMALL, SMALL_SYNTH))
        assert two > one * 1.5

    def test_bert_program_compiles(self):
        prog = compile_program(BERT_VARIANT, SynthParams())
        stats = program_stats(prog)
        assert stats.layers == 12
        assert stats.count(Opcode.RUN_QKV) == 12 * 12  # 12 tiles x 12 layers

    def test_stats_layer_count(self):
        stats = program_stats(compile_program(SMALL, SMALL_SYNTH))
        assert stats.layers == 2
        assert stats.total == len(compile_program(SMALL, SMALL_SYNTH))


class TestValidation:
    def test_oversized_config_rejected_at_compile(self):
        big = TransformerConfig("big", 128, 2, 1, 16)
        with pytest.raises(Exception):
            compile_program(big, SMALL_SYNTH)
