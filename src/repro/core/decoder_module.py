"""Decoder acceleration — the paper's future-work extension.

"Although this paper focuses solely on encoder layers, future work will
extend the architecture to support both encoder and decoder layers of
the transformer, using the same design principles."  This module does
exactly that, on the same substrates: a :class:`DecoderModule` holds
the encoder's two modules (an ``AttentionModule`` and an
``FFNModule``) and has no engine arithmetic of its own.

* **masked self-attention** — the encoder's head kernel with its mask
  unit on: masked score positions are forced to the score format's
  minimum before the softmax lookup (one comparator per score lane; no
  extra DSPs).
* **cross attention** — the same kernel with queries projected from
  the decoder state and keys/values from the encoder memory; the QKV
  engine runs in a 1-of-3 mode for Q and a 2-of-3 mode for K/V of the
  memory (which is loaded once per layer, not per step).
* **FFN** — the encoder's FFN sub-layers: each attention block ends in
  :meth:`~repro.core.ffn_module.FFNModule.project_residual`, and the
  third sub-layer of Fig. 1's decoder is
  :meth:`~repro.core.ffn_module.FFNModule.feed_forward`.

Cycle accounting prices both attention blocks with
:meth:`~repro.core.attention_module.AttentionModule.sweep_cycles`; the
extra cost over an encoder layer is one more attention block and one
more layer norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .._checks import check_count
from ..fixedpoint import FxTensor
from ..hls import ResourceEstimate, estimate_loop_resources, schedule_loop
from ..isa.controller import SynthParams
from ..nn.decoder import Decoder, DecoderLayer
from .attention_module import AttentionModule
from .engines import DatapathFormats, layernorm_loop_nest
from .ffn_module import FFNModule
from .quantized import QuantizedLinear

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
    attention: AttentionModule = field(init=False)
    ffn: FFNModule = field(init=False)

    def __post_init__(self) -> None:
        self.attention = AttentionModule(self.synth, self.formats,
                                         self.scale_mode)
        self.ffn = FFNModule(self.synth, self.formats)

    # ------------------------------------------------------------------
    # Functional model
    # ------------------------------------------------------------------
    def _heads(
        self, x_q: FxTensor, x_kv: FxTensor, wq: List[QuantizedLinear],
        wk: List[QuantizedLinear], wv: List[QuantizedLinear], masked: bool,
    ) -> FxTensor:
        """Every head of one attention sub-layer (self or cross),
        concatenated."""
        att = self.attention
        return att.concat([
            att.attend(att.project(x_q, q), att.project(x_kv, k),
                       att.project(x_kv, v), x_q.raw.shape[1], masked)[2]
            for q, k, v in zip(wq, wk, wv)])

    def forward_layer(
        self, x: FxTensor, memory: FxTensor, layer: QuantizedDecoderLayer
    ) -> FxTensor:
        """One decoder layer: masked self-attn → cross-attn → FFN."""
        if x.raw.shape[1] != memory.raw.shape[1]:
            raise ValueError("decoder state and memory widths differ")
        ffn = self.ffn
        sa = self._heads(x, x, layer.self_wq, layer.self_wk, layer.self_wv,
                         masked=True)
        _, h1 = ffn.project_residual(sa, layer.self_wo, x,
                                     layer.ln1_gamma, layer.ln1_beta)
        ca = self._heads(h1, memory, layer.cross_wq, layer.cross_wk,
                         layer.cross_wv, masked=False)
        _, h2 = ffn.project_residual(ca, layer.cross_wo, h1,
                                     layer.ln2_gamma, layer.ln2_beta)
        return ffn.feed_forward(h2, layer.w1, layer.w2, layer.activation,
                                layer.ln3_gamma, layer.ln3_beta)[2]

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
        check_count("tgt_len", tgt_len)
        check_count("mem_len", mem_len)
        att = self.attention
        self_attn = att.compute_cycles(tgt_len, d_model, num_heads)
        cross = att.sweep_cycles(tgt_len, mem_len, d_model, num_heads)
        ffn = self.ffn.compute_cycles(tgt_len, d_model)
        cycles = {
            "self_attention": self_attn["total"],
            "cross_q": cross["qkv"],
            "cross_kv": att.projection_cycles(mem_len, d_model, num_heads),
            "cross_qk": cross["qk"],
            "cross_softmax": cross["softmax"],
            "cross_sv": cross["sv"],
            "ffn": ffn["total"],
            "ln_extra": schedule_loop(
                self.ffn.layernorm.loop_nest(tgt_len, d_model)).cycles,
        }
        cycles["total"] = sum(cycles.values())
        return cycles

    def resources(self) -> ResourceEstimate:
        """Decoder support reuses the encoder's engines; the increment
        is one extra layer-norm unit and the mask comparators."""
        extra_ln = estimate_loop_resources(
            layernorm_loop_nest(self.synth.seq_chunk, self.synth.max_d_model),
            label="ln3")
        mask_luts = self.synth.seq_chunk * 4  # one comparator per lane
        extra_ln.luts += mask_luts
        return extra_ln
