"""Workload → instruction-stream compiler (the MicroBlaze software).

Emits the per-layer schedule the accelerator controller executes:

1. per MHA tile: load the Wq/Wk/Wv + input tiles, run ``QKV_CE``;
2. scores / softmax / attention per head;
3. per FFN tile (2-D): load weights, run the FFN engine;
4. layer norms after FFN1 and FFN3;
5. store the layer output.

The stream length is itself a meaningful artifact: it scales with the
runtime tile counts, which is how reprogramming changes latency without
touching the bitstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..nn.model_zoo import TransformerConfig
from .controller import ConfigRegisterFile, SynthParams
from .instructions import Instruction, Opcode

__all__ = ["compile_program", "ProgramStats", "program_stats"]


def _ffn_tile_counts(csr: ConfigRegisterFile) -> tuple:
    """(reduction-dim tiles, FFN1 out tiles, FFN2 out tiles, FFN3 out tiles).

    Reduction-dim counts follow the runtime d_model; output-dim counts
    are fixed by the synthesized buffers (see core.latency for why this
    matches the measured linear-in-d_model scaling).
    """
    t_in = csr.tiles_ffn
    synth = csr.synth
    t_out1 = synth.tiles_ffn_max          # d_model_max / TS
    t_out2 = 4 * synth.tiles_ffn_max      # 4*d_model_max / TS
    t_out3 = synth.tiles_ffn_max
    return t_in, t_out1, t_out2, t_out3


def _emit_ffn_stage(
    emit, layer: int, engine_arg: int, opcode: Opcode,
    t_in: int, t_out: int, real_out_tiles: int,
) -> None:
    """One FFN engine's tile sweep: output tiles outer, reduction inner.

    LOAD instructions are emitted only for tiles that intersect real
    weights; the remaining grid invocations run on zero-gated lanes
    (output columns past the runtime d_model) with no traffic.
    """
    for c in range(t_out):
        for r in range(t_in):
            tile = c * t_in + r
            if c < real_out_tiles:
                emit(Instruction(Opcode.LOAD_FFN_WEIGHTS, layer=layer,
                                 tile=tile, arg=engine_arg))
            emit(Instruction(opcode, layer=layer, tile=tile))


def compile_program(
    config: TransformerConfig, synth: SynthParams
) -> List[Instruction]:
    """Compile one inference pass into controller instructions."""
    csr = ConfigRegisterFile(synth)
    csr.program(config)

    prog: List[Instruction] = []
    emit = prog.append

    # CSR programming prologue (one CONFIGURE per parameter register).
    for idx, (reg, val) in enumerate(csr.snapshot().items()):
        emit(Instruction(Opcode.CONFIGURE, arg=val & 0xFFFFF,
                         tile=idx, meta={"register": reg}))

    t_in, t_out1, t_out2, t_out3 = _ffn_tile_counts(csr)
    for layer in range(config.num_layers):
        # ---- attention -------------------------------------------------
        emit(Instruction(Opcode.LOAD_BIASES, layer=layer))
        for tile in range(csr.tiles_mha):
            emit(Instruction(Opcode.LOAD_INPUT, layer=layer, tile=tile))
            for head in range(config.num_heads):
                emit(Instruction(Opcode.LOAD_QKV_WEIGHTS, layer=layer,
                                 head=head, tile=tile))
            emit(Instruction(Opcode.RUN_QKV, layer=layer, tile=tile))
        for head in range(config.num_heads):
            emit(Instruction(Opcode.RUN_QK, layer=layer, head=head))
            emit(Instruction(Opcode.RUN_SOFTMAX, layer=layer, head=head))
            emit(Instruction(Opcode.RUN_SV, layer=layer, head=head))
        emit(Instruction(Opcode.BARRIER, layer=layer))

        # ---- FFN stages (2-D tiling; see _emit_ffn_stage) ---------------
        ts = synth.ts_ffn
        real1 = max(1, -(-config.d_model // ts))
        real2 = max(1, -(-(4 * config.d_model) // ts))
        _emit_ffn_stage(emit, layer, 1, Opcode.RUN_FFN1,
                        t_in, t_out1, real_out_tiles=min(real1, t_out1))
        emit(Instruction(Opcode.RUN_LN1, layer=layer))
        _emit_ffn_stage(emit, layer, 2, Opcode.RUN_FFN2,
                        t_in, t_out2, real_out_tiles=min(real2, t_out2))
        _emit_ffn_stage(emit, layer, 3, Opcode.RUN_FFN3,
                        t_in, t_out3, real_out_tiles=min(real1, t_out3))
        emit(Instruction(Opcode.RUN_LN2, layer=layer))
        emit(Instruction(Opcode.BARRIER, layer=layer))

    emit(Instruction(Opcode.STORE_OUTPUT, layer=config.num_layers - 1))
    emit(Instruction(Opcode.HALT))
    return prog


@dataclass(frozen=True)
class ProgramStats:
    """Summary of a compiled program."""

    total: int
    by_opcode: dict
    layers: int

    def count(self, opcode: Opcode) -> int:
        return self.by_opcode.get(opcode, 0)


def program_stats(program: List[Instruction]) -> ProgramStats:
    """Histogram a program by opcode."""
    hist: dict = {}
    layers = 0
    for ins in program:
        hist[ins.opcode] = hist.get(ins.opcode, 0) + 1
        layers = max(layers, ins.layer + 1)
    return ProgramStats(total=len(program), by_opcode=hist, layers=layers)

