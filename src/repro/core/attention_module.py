"""The multi-head attention module: QKV_CE, QK_CE, softmax, SV_CE.

One engine set exists per attention head ("The number of these engines
is determined by the number of attention heads"), all heads executing
in parallel.  The module provides three coupled views of the same
hardware:

* **functional** — bit-accurate fixed-point forward pass per head
  (:meth:`AttentionModule.forward`), validated against the golden
  float MHA;
* **cycles** — per-engine cycle counts from the Algorithm 1–3 loop
  nests (:meth:`AttentionModule.compute_cycles`);
* **resources / timing** — PE and buffer inventory
  (:meth:`AttentionModule.resources`, :meth:`AttentionModule.timing_paths`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..fixedpoint import FxTensor, requantize, saturate
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
from ..nn.functional import attention_scale
from .engines import (
    DatapathFormats,
    add_bias_and_requantize,
    qk_loop_nest,
    qkv_loop_nest,
    reduction_passes,
    sv_loop_nest,
    tiled_fx_matmul_reduction,
)
from .quantized import QuantizedLayer
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
    """All per-head attention engines of one synthesized ProTEA."""

    synth: SynthParams
    formats: DatapathFormats = field(default_factory=DatapathFormats.fix8)
    scale_mode: str = "sqrt_dk"
    softmax: SoftmaxUnit = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.softmax is None:
            self.softmax = SoftmaxUnit(formats=self.formats)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    def forward_head(
        self, x: FxTensor, layer: QuantizedLayer, head: int
    ) -> HeadTrace:
        """One head's QKV → scores → softmax → SV pipeline."""
        ts = self.synth.ts_mha
        wq, wk, wv = layer.wq[head], layer.wk[head], layer.wv[head]
        q_acc = tiled_fx_matmul_reduction(x, wq.weight, ts)
        k_acc = tiled_fx_matmul_reduction(x, wk.weight, ts)
        v_acc = tiled_fx_matmul_reduction(x, wv.weight, ts)
        q = add_bias_and_requantize(q_acc, wq.bias, self.formats.qkv)
        k = add_bias_and_requantize(k_acc, wk.bias, self.formats.qkv)
        v = add_bias_and_requantize(v_acc, wv.bias, self.formats.qkv)

        d_k = q.raw.shape[1]
        scale = attention_scale(d_k, x.raw.shape[1], self.scale_mode)
        # Exact integer Q.K^T, then the fixed scale multiplier, then the
        # score-buffer quantization.
        scores_val = (q.raw @ k.raw.T) * (q.fmt.scale * k.fmt.scale) * scale
        scores = FxTensor.from_float(scores_val, self.formats.score)

        probs = self.softmax(scores)

        sv_raw = probs.raw @ v.raw  # exact integer product
        prod_scale = probs.fmt.scale * v.fmt.scale
        sv = FxTensor.from_float(sv_raw * prod_scale, self.formats.activation)
        return HeadTrace(q=q, k=k, v=v, scores=scores, probs=probs, sv=sv)

    def forward(
        self, x: FxTensor, layer: QuantizedLayer
    ) -> tuple[FxTensor, List[HeadTrace]]:
        """All heads in parallel; returns the concatenated attention
        output (pre output-projection) and per-head traces."""
        traces = [self.forward_head(x, layer, h)
                  for h in range(layer.num_heads)]
        concat = np.concatenate([t.sv.raw for t in traces], axis=1)
        return FxTensor(concat, self.formats.activation), traces

    # ------------------------------------------------------------------
    # Cycle model
    # ------------------------------------------------------------------
    def compute_cycles(
        self, seq_len: int, d_model: int, num_heads: int
    ) -> Dict[str, int]:
        """Per-engine compute cycles for one layer (heads in parallel).

        Sequences longer than the synthesized chunk are processed in
        ``ceil(SL/chunk)`` chunks: the score-dependent engines (QK,
        softmax, SV) iterate over chunk pairs, which is what makes long
        sequences scale super-linearly.
        """
        synth = self.synth
        d_k = d_model // num_heads
        tiles = max(1, math.ceil(d_model / synth.ts_mha))
        chunk = synth.seq_chunk
        chunks = math.ceil(seq_len / chunk)
        rows = min(seq_len, chunk)
        dk_synth = synth.max_d_model // synth.max_heads
        passes = reduction_passes(d_k, dk_synth)[0]

        qkv = tiles * schedule_loop(
            qkv_loop_nest(seq_len, d_k, synth.ts_mha)).cycles
        qk = chunks * chunks * schedule_loop(
            qk_loop_nest(rows, rows, dk_synth, reduction_passes=passes)).cycles
        sm = chunks * schedule_loop(
            self.softmax.loop_nest(rows, seq_len)).cycles
        sv = chunks * schedule_loop(
            sv_loop_nest(rows, d_k, chunk, key_chunks=chunks)).cycles
        return {"qkv": qkv, "qk": qk, "softmax": sm, "sv": sv,
                "total": qkv + qk + sm + sv}

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
        if cache_len < 1:
            raise ValueError("cache_len must be >= 1")
        synth = self.synth
        d_k = d_model // num_heads
        tiles = max(1, math.ceil(d_model / synth.ts_mha))
        chunk = synth.seq_chunk
        m_chunks = math.ceil(cache_len / chunk)
        k_rows = min(cache_len, chunk)
        dk_synth = synth.max_d_model // synth.max_heads
        passes = reduction_passes(d_k, dk_synth)[0]

        qkv = tiles * schedule_loop(
            qkv_loop_nest(1, d_k, synth.ts_mha)).cycles
        qk = m_chunks * schedule_loop(
            qk_loop_nest(1, k_rows, dk_synth, reduction_passes=passes)).cycles
        sm = schedule_loop(self.softmax.loop_nest(1, cache_len)).cycles
        sv = schedule_loop(
            sv_loop_nest(1, d_k, chunk, key_chunks=m_chunks)).cycles
        return {"qkv": qkv, "qk": qk, "softmax": sm, "sv": sv,
                "total": qkv + qk + sm + sv}

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
