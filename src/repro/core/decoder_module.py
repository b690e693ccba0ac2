"""Decoder acceleration — the paper's future-work extension.

"Although this paper focuses solely on encoder layers, future work will
extend the architecture to support both encoder and decoder layers of
the transformer, using the same design principles."  This module does
exactly that, on the same substrates:

* **masked self-attention** — the encoder's QKV/QK/softmax/SV engines
  plus a mask unit: masked score positions are forced to the score
  format's minimum before the softmax lookup (one comparator per score
  lane; no extra DSPs).
* **cross attention** — the same engine layout with queries projected
  from the decoder state and keys/values from the encoder memory; the
  QKV engine runs in a 1-of-3 mode for Q and a 2-of-3 mode for K/V of
  the memory (which is loaded once per layer, not per step).
* **FFN** — the encoder's FFN module verbatim (the third sub-layer of
  Fig. 1's decoder is identical to the encoder's).

Cycle/resource accounting reuses the Algorithm 1–3 loop nests; the
extra cost over an encoder layer is one more attention block and one
more layer norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..fixedpoint import FxTensor
from ..hls import ResourceEstimate, schedule_loop
from ..isa.controller import SynthParams
from ..nn.decoder import Decoder, DecoderLayer
from ..nn.functional import attention_scale, causal_fill
from .attention_module import AttentionModule
from .engines import (
    DatapathFormats,
    add_bias_and_requantize,
    qk_loop_nest,
    qkv_loop_nest,
    reduction_passes,
    sv_loop_nest,
    tiled_fx_matmul_reduction,
)
from .ffn_module import FFNModule
from .layernorm_unit import LayerNormUnit
from .quantized import QuantizedLinear
from .softmax_unit import SoftmaxUnit

__all__ = ["QuantizedDecoderLayer", "QuantizedDecoder", "DecoderModule"]


@dataclass
class QuantizedDecoderLayer:
    """One decoder layer's weights in deployment form."""

    self_wq: List[QuantizedLinear]
    self_wk: List[QuantizedLinear]
    self_wv: List[QuantizedLinear]
    self_wo: QuantizedLinear
    cross_wq: List[QuantizedLinear]
    cross_wk: List[QuantizedLinear]
    cross_wv: List[QuantizedLinear]
    cross_wo: QuantizedLinear
    w1: QuantizedLinear
    w2: QuantizedLinear
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    ln3_gamma: np.ndarray
    ln3_beta: np.ndarray
    activation: str

    @classmethod
    def from_layer(cls, layer: DecoderLayer, weight_bits: int) -> "QuantizedDecoderLayer":
        q = lambda lin: QuantizedLinear.from_linear(lin, weight_bits)  # noqa: E731
        sa, ca = layer.self_attention, layer.cross_attention
        return cls(
            self_wq=[q(l) for l in sa.wq],
            self_wk=[q(l) for l in sa.wk],
            self_wv=[q(l) for l in sa.wv],
            self_wo=q(sa.wo),
            cross_wq=[q(l) for l in ca.wq],
            cross_wk=[q(l) for l in ca.wk],
            cross_wv=[q(l) for l in ca.wv],
            cross_wo=q(ca.wo),
            w1=q(layer.ffn.w1),
            w2=q(layer.ffn.w2),
            ln1_gamma=np.asarray(layer.ln1_gamma, dtype=np.float64),
            ln1_beta=np.asarray(layer.ln1_beta, dtype=np.float64),
            ln2_gamma=np.asarray(layer.ln2_gamma, dtype=np.float64),
            ln2_beta=np.asarray(layer.ln2_beta, dtype=np.float64),
            ln3_gamma=np.asarray(layer.ln3_gamma, dtype=np.float64),
            ln3_beta=np.asarray(layer.ln3_beta, dtype=np.float64),
            activation=layer.ffn.activation,
        )

    @property
    def num_heads(self) -> int:
        return len(self.self_wq)


@dataclass
class QuantizedDecoder:
    """A deployed decoder stack."""

    layers: List[QuantizedDecoderLayer]
    formats: DatapathFormats

    @classmethod
    def from_decoder(
        cls, decoder: Decoder, formats: DatapathFormats | None = None
    ) -> "QuantizedDecoder":
        formats = formats or DatapathFormats.fix8()
        return cls(
            layers=[QuantizedDecoderLayer.from_layer(l, formats.weight_bits)
                    for l in decoder.layers],
            formats=formats,
        )


@dataclass
class DecoderModule:
    """Decoder-layer execution on the synthesized encoder engines."""

    synth: SynthParams
    formats: DatapathFormats = field(default_factory=DatapathFormats.fix8)
    scale_mode: str = "sqrt_dk"
    softmax: SoftmaxUnit = None  # type: ignore[assignment]
    layernorm: LayerNormUnit = None  # type: ignore[assignment]
    ffn: FFNModule = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.softmax is None:
            self.softmax = SoftmaxUnit(formats=self.formats)
        if self.layernorm is None:
            self.layernorm = LayerNormUnit(formats=self.formats)
        if self.ffn is None:
            self.ffn = FFNModule(synth=self.synth, formats=self.formats,
                                 layernorm=self.layernorm)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    def _project(self, x: FxTensor, lin: QuantizedLinear) -> FxTensor:
        acc = tiled_fx_matmul_reduction(x, lin.weight, self.synth.ts_mha)
        return add_bias_and_requantize(acc, lin.bias, self.formats.qkv)

    def _attention(
        self,
        x_q: FxTensor,
        x_kv: FxTensor,
        wq: List[QuantizedLinear],
        wk: List[QuantizedLinear],
        wv: List[QuantizedLinear],
        masked: bool,
    ) -> FxTensor:
        """Shared per-head attention sweep (self or cross)."""
        d_model = x_q.raw.shape[1]
        outs = []
        for h in range(len(wq)):
            q = self._project(x_q, wq[h])
            k = self._project(x_kv, wk[h])
            v = self._project(x_kv, wv[h])
            scale = attention_scale(q.raw.shape[1], d_model, self.scale_mode)
            scores_val = (q.raw @ k.raw.T) * (q.fmt.scale * k.fmt.scale) * scale
            scores = FxTensor.from_float(scores_val, self.formats.score)
            if masked:
                # Mask unit: force future positions to the score format's
                # minimum (shared causal_fill semantics) and gate their
                # exp lanes to exactly zero in the softmax unit, so a
                # masked lane leaks nothing into the row sum.
                mask_bits = causal_fill(
                    np.zeros(scores.raw.shape, dtype=bool), True)
                scores = FxTensor(
                    causal_fill(scores.raw, scores.fmt.int_min), scores.fmt)
                probs = self.softmax(scores, masked=mask_bits)
            else:
                probs = self.softmax(scores)
            sv = (probs.raw @ v.raw) * (probs.fmt.scale * v.fmt.scale)
            outs.append(FxTensor.from_float(sv, self.formats.activation).raw)
        return FxTensor(np.concatenate(outs, axis=1), self.formats.activation)

    def _output_projection(
        self, concat: FxTensor, wo: QuantizedLinear, residual: FxTensor,
        gamma: np.ndarray, beta: np.ndarray,
    ) -> FxTensor:
        from .engines import tiled_fx_matmul_2d

        acc = tiled_fx_matmul_2d(concat, wo.weight, self.synth.ts_ffn,
                                 self.synth.ts_ffn)
        proj = add_bias_and_requantize(acc, wo.bias, self.formats.activation)
        return self.layernorm(proj, residual, gamma, beta)

    def forward_layer(
        self, x: FxTensor, memory: FxTensor, layer: QuantizedDecoderLayer
    ) -> FxTensor:
        """One decoder layer: masked self-attn → cross-attn → FFN."""
        if x.raw.shape[1] != memory.raw.shape[1]:
            raise ValueError("decoder state and memory widths differ")
        sa = self._attention(x, x, layer.self_wq, layer.self_wk,
                             layer.self_wv, masked=True)
        h1 = self._output_projection(sa, layer.self_wo, x,
                                     layer.ln1_gamma, layer.ln1_beta)
        ca = self._attention(h1, memory, layer.cross_wq, layer.cross_wk,
                             layer.cross_wv, masked=False)
        h2 = self._output_projection(ca, layer.cross_wo, h1,
                                     layer.ln2_gamma, layer.ln2_beta)
        return self._ffn_sublayer(h2, layer)

    def _ffn_sublayer(
        self, h2: FxTensor, layer: QuantizedDecoderLayer
    ) -> FxTensor:
        """FFN sub-layer: expansion + activation + contraction + LN.

        Row-wise (shared by the full pass and the KV-cache decode step).
        """
        from .engines import tiled_fx_matmul_2d

        ts = self.synth.ts_ffn
        hid_acc = tiled_fx_matmul_2d(h2, layer.w1.weight, ts, ts)
        hid = add_bias_and_requantize(hid_acc, layer.w1.bias,
                                      self.formats.hidden)
        hid = self.ffn._activate(hid, layer.activation)
        con_acc = tiled_fx_matmul_2d(hid, layer.w2.weight, ts, ts)
        con = add_bias_and_requantize(con_acc, layer.w2.bias,
                                      self.formats.activation)
        return self.layernorm(con, h2, layer.ln3_gamma, layer.ln3_beta)

    def forward(
        self, x: FxTensor, memory: FxTensor, weights: QuantizedDecoder
    ) -> FxTensor:
        for layer in weights.layers:
            x = self.forward_layer(x, memory, layer)
        return x

    # ------------------------------------------------------------------
    # Cycle model
    # ------------------------------------------------------------------
    def compute_cycles(
        self, tgt_len: int, mem_len: int, d_model: int, num_heads: int
    ) -> Dict[str, int]:
        """Per-engine cycles of one decoder layer.

        Self-attention matches the encoder's accounting at ``tgt_len``;
        cross-attention adds a K/V projection over ``mem_len`` rows and
        a ``tgt_len x mem_len`` score sweep; the FFN block is the
        encoder's.  Masking is free (comparators in the score path).
        """
        synth = self.synth
        d_k = d_model // num_heads
        tiles = max(1, math.ceil(d_model / synth.ts_mha))
        dk_synth = synth.max_d_model // synth.max_heads
        passes = reduction_passes(d_k, dk_synth)[0]
        chunk = synth.seq_chunk
        t_chunks = math.ceil(tgt_len / chunk)
        m_chunks = math.ceil(mem_len / chunk)
        t_rows = min(tgt_len, chunk)
        m_rows = min(mem_len, chunk)

        self_attn = AttentionModule(
            synth, self.formats, self.scale_mode
        ).compute_cycles(tgt_len, d_model, num_heads)

        cross_q = tiles * schedule_loop(
            qkv_loop_nest(tgt_len, d_k, synth.ts_mha)).cycles
        cross_kv = tiles * schedule_loop(
            qkv_loop_nest(mem_len, d_k, synth.ts_mha)).cycles
        cross_qk = t_chunks * m_chunks * schedule_loop(
            qk_loop_nest(t_rows, m_rows, dk_synth,
                         reduction_passes=passes)).cycles
        cross_sm = t_chunks * schedule_loop(
            self.softmax.loop_nest(t_rows, mem_len)).cycles
        cross_sv = t_chunks * schedule_loop(
            sv_loop_nest(t_rows, d_k, chunk, key_chunks=m_chunks)).cycles

        ffn = self.ffn.compute_cycles(tgt_len, d_model)
        ln_extra = schedule_loop(
            self.layernorm.loop_nest(tgt_len, d_model)).cycles

        cycles = {
            "self_attention": self_attn["total"],
            "cross_q": cross_q,
            "cross_kv": cross_kv,
            "cross_qk": cross_qk,
            "cross_softmax": cross_sm,
            "cross_sv": cross_sv,
            "ffn": ffn["total"],
            "ln_extra": ln_extra,
        }
        cycles["total"] = sum(cycles.values())
        return cycles

    def resources(self) -> ResourceEstimate:
        """Decoder support reuses the encoder's engines; the increment
        is one extra layer-norm unit and the mask comparators."""
        from .engines import layernorm_loop_nest
        from ..hls import estimate_loop_resources

        extra_ln = estimate_loop_resources(
            layernorm_loop_nest(self.synth.seq_chunk, self.synth.max_d_model),
            label="ln3")
        mask_luts = self.synth.seq_chunk * 4  # one comparator per lane
        extra_ln.luts += mask_luts
        return extra_ln
