"""The multi-head attention module: QKV_CE, QK_CE, softmax, SV_CE.

One engine set exists per attention head ("The number of these engines
is determined by the number of attention heads"), all heads executing
in parallel.  The module provides three coupled views of the same
hardware:

* **functional** — one bit-accurate fixed-point head kernel
  (:meth:`AttentionModule.project` and :meth:`AttentionModule.attend`)
  under the encoder's per-head forward pass, validated against the
  golden float MHA;
* **cycles** — per-engine cycle counts from the Algorithm 1–3 loop
  nests, one sweep (:meth:`AttentionModule.sweep_cycles`) under the
  encoder prefill, the decode step and the decoder layer;
* **resources / timing** — PE and buffer inventory
  (:meth:`AttentionModule.resources`, :meth:`AttentionModule.timing_paths`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .._checks import check_count
from ..fixedpoint import FxTensor
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
from ..nn.functional import attention_scale, causal_fill
from .engines import (
    DatapathFormats,
    add_bias_and_requantize,
    qk_loop_nest,
    qkv_loop_nest,
    reduction_passes,
    sv_loop_nest,
    tiled_fx_matmul_reduction,
)
from .quantized import QuantizedLayer, QuantizedLinear
from .softmax_unit import SoftmaxUnit

__all__ = ["AttentionModule", "HeadTrace"]


@dataclass
class HeadTrace:
    """Per-head intermediates of one attention forward pass."""

    q: FxTensor
    k: FxTensor
    v: FxTensor
    scores: FxTensor
    probs: FxTensor
    sv: FxTensor


@dataclass
class AttentionModule:
    """All per-head attention engines of one synthesized ProTEA.

    The encoder, the decoder's masked self- and cross-attention, the
    KV-cache decode step and the instruction-level executor all run
    their heads through :meth:`project` and :meth:`attend`, and price
    them with :meth:`sweep_cycles`.
    """

    synth: SynthParams
    formats: DatapathFormats = field(default_factory=DatapathFormats.fix8)
    scale_mode: str = "sqrt_dk"
    softmax: SoftmaxUnit = field(init=False)

    def __post_init__(self) -> None:
        self.softmax = SoftmaxUnit(formats=self.formats)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    def project(self, x: FxTensor, lin: QuantizedLinear) -> FxTensor:
        """QKV_CE: one projection's tiled reduction, bias add and
        requantization to the Q/K/V buffer format."""
        acc = tiled_fx_matmul_reduction(x, lin.weight, self.synth.ts_mha)
        return add_bias_and_requantize(acc, lin.bias, self.formats.qkv)

    def attend(
        self, q: FxTensor, k: FxTensor, v: FxTensor, d_model: int,
        masked: bool = False,
    ) -> Tuple[FxTensor, FxTensor, FxTensor]:
        """One head's QK_CE → softmax → SV_CE; returns the scores,
        probabilities and SV output.

        ``masked`` is the decoder's mask unit: strictly-future score
        positions (aligned on the last query row, so a single newest
        row masks nothing) are forced to the score format's minimum and
        their exp lanes gated to exactly zero in the softmax unit, so a
        masked lane leaks nothing into the row sum.
        """
        scale = attention_scale(q.raw.shape[1], d_model, self.scale_mode)
        # Exact integer Q.K^T, then the fixed scale multiplier, then the
        # score-buffer quantization.
        scores = FxTensor.from_float(
            (q.raw @ k.raw.T) * (q.fmt.scale * k.fmt.scale) * scale,
            self.formats.score)
        lanes = None
        if masked:
            lanes = causal_fill(np.zeros(scores.raw.shape, dtype=bool), True)
            scores = FxTensor(causal_fill(scores.raw, scores.fmt.int_min),
                              scores.fmt)
        probs = self.softmax(scores, masked=lanes)
        # Exact integer P.V, then the product scale.
        sv = FxTensor.from_float(
            (probs.raw @ v.raw) * (probs.fmt.scale * v.fmt.scale),
            self.formats.activation)
        return scores, probs, sv

    def concat(self, heads: List[FxTensor]) -> FxTensor:
        """The head outputs side by side (the output projection's input)."""
        return FxTensor(np.concatenate([h.raw for h in heads], axis=1),
                        self.formats.activation)

    def forward_head(
        self, x: FxTensor, layer: QuantizedLayer, head: int
    ) -> HeadTrace:
        """One head's QKV → scores → softmax → SV pipeline."""
        q, k, v = (self.project(x, w[head])
                   for w in (layer.wq, layer.wk, layer.wv))
        return HeadTrace(q, k, v, *self.attend(q, k, v, x.raw.shape[1]))

    def forward(
        self, x: FxTensor, layer: QuantizedLayer
    ) -> tuple[FxTensor, List[HeadTrace]]:
        """All heads in parallel; returns the concatenated attention
        output (pre output-projection) and per-head traces."""
        traces = [self.forward_head(x, layer, h)
                  for h in range(layer.num_heads)]
        return self.concat([t.sv for t in traces]), traces

    # ------------------------------------------------------------------
    # Cycle model
    # ------------------------------------------------------------------
    def sweep_cycles(
        self, q_len: int, kv_len: int, d_model: int, num_heads: int
    ) -> Dict[str, int]:
        """Per-engine cycles of ``q_len`` query rows against ``kv_len``
        keys (heads in parallel).

        The projections run over the ``q_len`` rows.  Sequences longer
        than the synthesized chunk are processed in chunks: QK runs
        over ``ceil(q/chunk) * ceil(kv/chunk)`` score blocks, and
        softmax and SV once per query block over all ``kv_len`` keys,
        which is what makes long sequences scale super-linearly.
        """
        for name, value in (("q_len", q_len), ("kv_len", kv_len),
                            ("d_model", d_model), ("num_heads", num_heads)):
            check_count(name, value)
        if d_model % num_heads:
            raise ValueError(f"d_model={d_model} is not divisible by "
                             f"num_heads={num_heads}")
        synth = self.synth
        d_k = d_model // num_heads
        chunk = synth.seq_chunk
        q_blocks, kv_blocks = -(-q_len // chunk), -(-kv_len // chunk)
        q_rows, kv_rows = min(q_len, chunk), min(kv_len, chunk)
        dk_synth = synth.max_d_model // synth.max_heads
        passes = reduction_passes(d_k, dk_synth)[0]

        qkv = self.projection_cycles(q_len, d_model, num_heads)
        qk = q_blocks * kv_blocks * schedule_loop(
            qk_loop_nest(q_rows, kv_rows, dk_synth,
                         reduction_passes=passes)).cycles
        sm = q_blocks * schedule_loop(
            self.softmax.loop_nest(q_rows, kv_len)).cycles
        sv = q_blocks * schedule_loop(
            sv_loop_nest(q_rows, d_k, chunk, key_chunks=kv_blocks)).cycles
        return {"qkv": qkv, "qk": qk, "softmax": sm, "sv": sv,
                "total": qkv + qk + sm + sv}

    def projection_cycles(self, rows: int, d_model: int,
                          num_heads: int) -> int:
        """QKV_CE cycles of projecting ``rows`` rows, heads in parallel."""
        ts = self.synth.ts_mha
        return max(1, math.ceil(d_model / ts)) * schedule_loop(
            qkv_loop_nest(rows, d_model // num_heads, ts)).cycles

    def compute_cycles(
        self, seq_len: int, d_model: int, num_heads: int
    ) -> Dict[str, int]:
        """Per-engine compute cycles of one encoder layer's attention."""
        check_count("seq_len", seq_len)
        return self.sweep_cycles(seq_len, seq_len, d_model, num_heads)

    def decode_compute_cycles(
        self, cache_len: int, d_model: int, num_heads: int
    ) -> Dict[str, int]:
        """Per-engine cycles of ONE new query row against ``cache_len`` keys.

        The KV-cache decode step: Q/K/V projections run for a single
        row (the cached keys/values are *not* recomputed), while the
        score-dependent engines sweep the whole cache — the term that
        grows with generated length.  ``cache_len`` counts the keys the
        new row attends over, including itself.
        """
        check_count("cache_len", cache_len)
        return self.sweep_cycles(1, cache_len, d_model, num_heads)

    def weight_bytes_per_tile(self, d_model: int, num_heads: int) -> int:
        """Off-chip bytes of one head's Wq+Wk+Wv tile."""
        d_k = d_model // num_heads
        elem = (self.formats.weight_bits + 7) // 8
        return 3 * d_k * self.synth.ts_mha * elem

    def input_bytes_per_tile(self, seq_len: int) -> int:
        """Off-chip bytes of one input (X) tile."""
        elem = (self.formats.activation.total_bits + 7) // 8
        return seq_len * self.synth.ts_mha * elem

    # ------------------------------------------------------------------
    # Resource / timing model
    # ------------------------------------------------------------------
    def _head_arrays(self) -> List[ArraySpec]:
        synth = self.synth
        dk_synth = synth.max_d_model // synth.max_heads
        part2 = (ArrayPartition(PartitionKind.COMPLETE, dim=2),)
        wbits = self.formats.weight_bits
        return [
            ArraySpec("wq", (dk_synth, synth.ts_mha), wbits, part2),
            ArraySpec("wk", (dk_synth, synth.ts_mha), wbits, part2),
            ArraySpec("wv", (dk_synth, synth.ts_mha), wbits, part2),
            ArraySpec("x", (synth.seq_chunk, synth.ts_mha),
                      self.formats.activation.total_bits, part2),
            ArraySpec("q", (synth.seq_chunk, dk_synth),
                      self.formats.qkv.total_bits, part2),
            ArraySpec("k", (synth.seq_chunk, dk_synth),
                      self.formats.qkv.total_bits, part2),
            ArraySpec("v", (synth.seq_chunk, dk_synth),
                      self.formats.qkv.total_bits, part2),
            ArraySpec("s", (synth.seq_chunk, synth.seq_chunk),
                      self.formats.score.total_bits, part2),
        ]

    def resources(self) -> ResourceEstimate:
        """Whole-module resources: per-head engines x ``max_heads``."""
        synth = self.synth
        dk_synth = synth.max_d_model // synth.max_heads
        chunk = synth.seq_chunk
        per_head = (
            estimate_loop_resources(
                qkv_loop_nest(chunk, dk_synth, synth.ts_mha),
                arrays=self._head_arrays(), label="qkv_ce")
            + estimate_loop_resources(
                qk_loop_nest(chunk, chunk, dk_synth), label="qk_ce")
            + estimate_loop_resources(
                sv_loop_nest(chunk, dk_synth, chunk), label="sv_ce")
            + estimate_loop_resources(
                self.softmax.loop_nest(chunk, chunk), label="softmax")
        )
        return per_head.scaled(synth.max_heads)

    def timing_paths(self) -> List[EnginePath]:
        """Critical-path descriptors for the Fmax model.

        The attention engine class's routing sweet spot is the
        published optimum: a 64-wide unroll iterated over 12 tiles.
        """
        from ..hls.timing import tile_regularity

        synth = self.synth
        tiles = synth.tiles_mha_max
        dk_synth = synth.max_d_model // synth.max_heads
        reg = tile_regularity(synth.max_d_model, synth.ts_mha)
        return [
            EnginePath("qkv_ce", width=synth.ts_mha, iters=tiles,
                       width_ref=64, iters_ref=12, **reg),
            EnginePath("qk_ce", width=dk_synth, iters=1,
                       width_ref=dk_synth, iters_ref=1),
            EnginePath("sv_ce", width=synth.seq_chunk, iters=1,
                       width_ref=synth.seq_chunk, iters_ref=1),
        ]

    # ------------------------------------------------------------------
    def reference_concat(
        self, x: FxTensor, layer: QuantizedLayer
    ) -> np.ndarray:
        """Float reference of the concatenated head outputs, computed
        from the *dequantized* weights (isolates datapath error from
        weight-quantization error)."""
        xf = x.to_float()
        outs = []
        d_model = xf.shape[1]
        for h in range(layer.num_heads):
            q = xf @ layer.wq[h].weight.to_float() + layer.wq[h].bias.to_float()
            k = xf @ layer.wk[h].weight.to_float() + layer.wk[h].bias.to_float()
            v = xf @ layer.wv[h].weight.to_float() + layer.wv[h].bias.to_float()
            scale = attention_scale(q.shape[1], d_model, self.scale_mode)
            s = (q @ k.T) * scale
            e = np.exp(s - s.max(axis=1, keepdims=True))
            outs.append((e / e.sum(axis=1, keepdims=True)) @ v)
        return np.concatenate(outs, axis=1)
