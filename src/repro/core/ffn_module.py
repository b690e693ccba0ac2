"""The feed-forward module: FFN1_CE, FFN2_CE, FFN3_CE + layer norms.

Roles (Section IV-B):

* ``FFN1_CE`` — "first linear transformation on the attention scores"
  = the attention **output projection** (``d_model x d_model``),
  followed by a layer-norm (with the residual from the layer input);
* ``FFN2_CE`` — the expansion linear ``d_model → 4 d_model`` with the
  activation function;
* ``FFN3_CE`` — the contraction linear ``4 d_model → d_model``,
  followed by the second layer-norm (residual from the FFN input).

Weights are tiled along **both** dimensions (Fig. 6).  The output-dim
tile counts are frozen at the synthesized maxima — the buffers and
controller iteration grids exist in silicon regardless of the runtime
``d_model`` — while the reduction-dim tile count follows the runtime
value.  That asymmetry is what makes measured latency scale *linearly*
in ``d_model`` (Table I tests 6–7) even though FLOPs scale
quadratically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..fixedpoint import ErfLUT, FxTensor, quantize
from ..hls import (
    ArrayPartition,
    ArraySpec,
    EnginePath,
    PartitionKind,
    ResourceEstimate,
    estimate_loop_resources,
    schedule_loop,
)
from ..isa.controller import SynthParams
from .engines import (
    DatapathFormats,
    add_bias_and_requantize,
    ffn_loop_nest,
    tiled_fx_matmul_2d,
)
from .layernorm_unit import LayerNormUnit
from .quantized import QuantizedLayer

__all__ = ["FFNModule", "FFNTrace"]


@dataclass
class FFNTrace:
    """Intermediates of one FFN-module pass (for stagewise validation)."""

    proj: FxTensor      # FFN1 output (pre-LN)
    ln1: FxTensor       # post first layer norm
    hidden: FxTensor    # FFN2 output, post-activation
    contract: FxTensor  # FFN3 output (pre-LN)
    out: FxTensor       # post second layer norm


@dataclass
class FFNModule:
    """The three FFN engines plus the two layer-norm units."""

    synth: SynthParams
    formats: DatapathFormats = field(default_factory=DatapathFormats.fix8)
    layernorm: LayerNormUnit = None  # type: ignore[assignment]
    erf_lut: ErfLUT = field(default_factory=lambda: ErfLUT(entries=1024))

    def __post_init__(self) -> None:
        if self.layernorm is None:
            self.layernorm = LayerNormUnit(formats=self.formats)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    def _activate(self, x: FxTensor, activation: str) -> FxTensor:
        """Fixed-point activation: ReLU is an integer max; GELU goes
        through the erf LUT."""
        if activation == "relu":
            return FxTensor(np.maximum(x.raw, 0), x.fmt)
        if activation == "gelu":
            val = x.to_float()
            erf_codes = quantize(self.erf_lut(val / np.sqrt(2.0)),
                                 self.formats.prob)
            gelu = 0.5 * val * (1.0 + erf_codes * self.formats.prob.scale)
            return FxTensor.from_float(gelu, self.formats.hidden)
        raise ValueError(f"unknown activation {activation!r}")

    def forward(
        self,
        concat: FxTensor,
        layer_input: FxTensor,
        layer: QuantizedLayer,
    ) -> FFNTrace:
        """Full FFN-module pass.

        ``concat`` is the attention module's concatenated head output;
        ``layer_input`` is the encoder layer's input (residual source
        for the first layer norm).
        """
        ts = self.synth.ts_ffn
        # FFN1: output projection + residual + LN1.
        proj_acc = tiled_fx_matmul_2d(concat, layer.wo.weight, ts, ts)
        proj = add_bias_and_requantize(proj_acc, layer.wo.bias,
                                       self.formats.activation)
        ln1 = self.layernorm(proj, layer_input, layer.ln1_gamma, layer.ln1_beta)

        # FFN2: expansion + activation.
        hid_acc = tiled_fx_matmul_2d(ln1, layer.w1.weight, ts, ts)
        hid = add_bias_and_requantize(hid_acc, layer.w1.bias,
                                      self.formats.hidden)
        hid = self._activate(hid, layer.activation)

        # FFN3: contraction + residual + LN2.
        con_acc = tiled_fx_matmul_2d(hid, layer.w2.weight, ts, ts)
        con = add_bias_and_requantize(con_acc, layer.w2.bias,
                                      self.formats.activation)
        out = self.layernorm(con, ln1, layer.ln2_gamma, layer.ln2_beta)
        return FFNTrace(proj=proj, ln1=ln1, hidden=hid, contract=con, out=out)

    # ------------------------------------------------------------------
    # Cycle model
    # ------------------------------------------------------------------
    def tile_grid(self, d_model: int) -> Dict[str, int]:
        """Invocation counts of each engine for runtime ``d_model``.

        Reduction-dim tiles follow the runtime dimension; output-dim
        tiles stay at the synthesized grid (see module docstring).
        """
        synth = self.synth
        t_in = max(1, math.ceil(d_model / synth.ts_ffn))
        t_out = synth.tiles_ffn_max
        return {
            "ffn1": t_in * t_out,
            "ffn2": t_in * (4 * t_out),
            # FFN3 reduces 4*d_model with a 4*TS-wide PE array: the
            # reduction covers 4*d_model/(4*TS) = t_in row blocks.
            "ffn3": t_in * t_out,
        }

    def compute_cycles(self, seq_len: int, d_model: int) -> Dict[str, int]:
        """Per-engine compute cycles for one layer."""
        synth = self.synth
        grid = self.tile_grid(d_model)
        per1 = schedule_loop(
            ffn_loop_nest(seq_len, synth.ts_ffn, synth.ts_ffn, name="ffn1")).cycles
        per2 = schedule_loop(
            ffn_loop_nest(seq_len, synth.ts_ffn, synth.ts_ffn, name="ffn2")).cycles
        per3 = schedule_loop(
            ffn_loop_nest(seq_len, synth.ts_ffn, 4 * synth.ts_ffn,
                          name="ffn3")).cycles
        ln = schedule_loop(self.layernorm.loop_nest(seq_len, d_model)).cycles
        cycles = {
            "ffn1": grid["ffn1"] * per1,
            "ffn2": grid["ffn2"] * per2,
            "ffn3": grid["ffn3"] * per3,
            "ln": 2 * ln,
        }
        cycles["total"] = sum(cycles.values())
        return cycles

    def weight_bytes_per_tile(self) -> Dict[str, int]:
        """Off-chip bytes of one weight tile of each engine (FFN3's PE
        array is four accumulator groups wide, so its tile is 4x)."""
        tile = self.synth.ts_ffn * self.synth.ts_ffn
        elem = (self.formats.weight_bits + 7) // 8
        return {"ffn1": tile * elem, "ffn2": tile * elem,
                "ffn3": 4 * tile * elem}

    def weight_bytes(self, d_model: int) -> Dict[str, int]:
        """Per-engine off-chip weight traffic for one layer (runtime
        weights only — padding lanes are zero-gated, not loaded)."""
        elem = (self.formats.weight_bits + 7) // 8
        return {
            "ffn1": d_model * d_model * elem,
            "ffn2": d_model * 4 * d_model * elem,
            "ffn3": 4 * d_model * d_model * elem,
        }

    # ------------------------------------------------------------------
    # Resource / timing model
    # ------------------------------------------------------------------
    def _arrays(self) -> List[ArraySpec]:
        synth = self.synth
        part1 = (ArrayPartition(PartitionKind.COMPLETE, dim=1),)
        wbits = self.formats.weight_bits
        abits = self.formats.activation.total_bits
        return [
            ArraySpec("w_ffn12", (synth.ts_ffn, synth.ts_ffn), wbits, part1),
            ArraySpec("w_ffn3", (4 * synth.ts_ffn, synth.ts_ffn), wbits, part1),
            ArraySpec("ffn_in", (synth.seq_chunk, synth.ts_ffn), abits, part1),
            ArraySpec("ffn_out", (synth.seq_chunk, synth.max_d_model), abits,
                      (ArrayPartition(PartitionKind.CYCLIC, factor=16, dim=2),)),
            ArraySpec("ffn_hidden", (synth.seq_chunk, 4 * synth.ts_ffn), abits,
                      (ArrayPartition(PartitionKind.CYCLIC, factor=16, dim=2),)),
        ]

    def resources(self) -> ResourceEstimate:
        synth = self.synth
        chunk = synth.seq_chunk
        est = (
            estimate_loop_resources(
                ffn_loop_nest(chunk, synth.ts_ffn, synth.ts_ffn, name="ffn1"),
                arrays=self._arrays(), label="ffn1_ce")
            + estimate_loop_resources(
                ffn_loop_nest(chunk, synth.ts_ffn, synth.ts_ffn, name="ffn2"),
                label="ffn2_ce")
            + estimate_loop_resources(
                ffn_loop_nest(chunk, synth.ts_ffn, 4 * synth.ts_ffn,
                              name="ffn3"),
                label="ffn3_ce")
            + estimate_loop_resources(
                self.layernorm.loop_nest(chunk, synth.max_d_model),
                label="ln1")
            + estimate_loop_resources(
                self.layernorm.loop_nest(chunk, synth.max_d_model),
                label="ln2")
        )
        return est

    def timing_paths(self) -> List[EnginePath]:
        """Critical-path descriptors; the FFN engine class's sweet spot
        is the published optimum (128-wide, 6 output tiles — 24 for the
        expansion engine whose grid is 4x, 512-wide for FFN3 whose PE
        array is 4 accumulator groups)."""
        from ..hls.timing import tile_regularity

        synth = self.synth
        iters = synth.tiles_ffn_max
        reg = tile_regularity(synth.max_d_model, synth.ts_ffn)
        return [
            EnginePath("ffn1_ce", width=synth.ts_ffn, iters=iters,
                       width_ref=128, iters_ref=6, **reg),
            EnginePath("ffn2_ce", width=synth.ts_ffn, iters=4 * iters,
                       width_ref=128, iters_ref=24, **reg),
            EnginePath("ffn3_ce", width=4 * synth.ts_ffn, iters=iters,
                       width_ref=512, iters_ref=6, **reg),
        ]
