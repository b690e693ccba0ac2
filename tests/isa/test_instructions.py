"""Unit + property tests for instruction encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import (
    Instruction,
    Opcode,
    SynthParams,
    compile_program,
    decode,
    encode,
)
from repro.nn import TransformerConfig

opcode_strategy = st.sampled_from(list(Opcode))
instr_strategy = st.builds(
    Instruction,
    opcode=opcode_strategy,
    layer=st.integers(0, 4095),
    head=st.integers(0, 255),
    tile=st.integers(0, 65535),
    arg=st.integers(0, (1 << 20) - 1),
)


class TestEncoding:
    @given(instr_strategy)
    def test_roundtrip(self, instr):
        assert decode(encode(instr)) == instr

    def test_fits_64_bits(self):
        word = encode(Instruction(Opcode.HALT, layer=4095, head=255,
                                  tile=65535, arg=(1 << 20) - 1))
        assert 0 <= word < (1 << 64)

    def test_distinct_opcodes_distinct_words(self):
        a = encode(Instruction(Opcode.RUN_QKV, tile=3))
        b = encode(Instruction(Opcode.RUN_QK, tile=3))
        assert a != b

    def test_field_limits_enforced(self):
        with pytest.raises(ValueError):
            Instruction(Opcode.HALT, layer=4096)
        with pytest.raises(ValueError):
            Instruction(Opcode.HALT, head=256)
        with pytest.raises(ValueError):
            Instruction(Opcode.HALT, tile=1 << 16)
        with pytest.raises(ValueError):
            Instruction(Opcode.HALT, arg=1 << 20)

    @pytest.mark.parametrize("field", ["layer", "head", "tile", "arg"])
    def test_negative_field_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} -1 out of field"):
            Instruction(Opcode.HALT, **{field: -1})

    def test_compiled_program_roundtrips(self):
        cfg = TransformerConfig("a", 64, 2, 1, 16)
        synth = SynthParams(ts_mha=16, ts_ffn=32, max_heads=2, max_layers=2,
                            max_d_model=64, max_seq_len=16, seq_chunk=16)
        prog = compile_program(cfg, synth)
        assert [decode(encode(i)) for i in prog] == prog

    def test_decode_rejects_oversized_word(self):
        with pytest.raises(ValueError):
            decode(1 << 64)

    def test_meta_not_part_of_equality(self):
        a = Instruction(Opcode.CONFIGURE, arg=1, meta={"register": "x"})
        b = Instruction(Opcode.CONFIGURE, arg=1)
        assert a == b


def test_opcode_space_has_no_collisions():
    values = [int(op) for op in Opcode]
    assert len(values) == len(set(values))
