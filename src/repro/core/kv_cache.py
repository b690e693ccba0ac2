"""Quantized KV-cache: incremental decode on the synthesized engines.

The deployment form of :mod:`repro.nn.kv_cache`: per-layer, per-head
K/V rows in the Q/K/V buffer format, appended one row per decoded
token.  A decode step runs the newest target row through every decoder
layer — one query projection against the cached keys/values instead of
the full ``(t+1) x (t+1)`` masked sweep.

**Bit-identity.**  Every engine op on this path is either exact
integer arithmetic (tiled matmuls, bias adds, row sums) or an
elementwise/row-wise float op (score scaling, LUT lookups, layer norm),
so the step's output row is *bit-identical* to row ``t`` of
:meth:`~repro.core.decoder_module.DecoderModule.forward` over the first
``t + 1`` tokens — provided masked softmax lanes contribute exactly
zero, which the mask comparators in
:class:`~repro.core.softmax_unit.SoftmaxUnit` guarantee.  The step runs
the decoder's own head kernel and FFN sub-layers, so the property
tests' raw-code equality holds one kernel to itself; the independent
check is the frozen digest of ``prefill`` in
``tests/goldens/datapath_digests.json``.

Cache capacity is a synthesis-time ceiling: the score/SV buffers were
generated for ``max_seq_len`` keys, so growing the cache past it raises
:class:`~repro.isa.controller.ResynthesisRequiredError`, exactly like
programming an over-long sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..fixedpoint import FxTensor
from ..isa.controller import ResynthesisRequiredError
from .decoder_module import DecoderModule, QuantizedDecoder, QuantizedDecoderLayer

__all__ = ["FxLayerKVCache", "FxDecoderKVCache"]


@dataclass
class FxLayerKVCache:
    """One layer's cached K/V rows (per head, in the QKV format)."""

    self_k: List[FxTensor]
    self_v: List[FxTensor]
    cross_k: List[FxTensor]
    cross_v: List[FxTensor]

    @property
    def seq_len(self) -> int:
        return self.self_k[0].raw.shape[0] if self.self_k else 0

    def cache_bytes(self) -> int:
        """On-chip/HBM residency of this layer's self-attention cache."""
        elem = (self.self_k[0].fmt.total_bits + 7) // 8 if self.self_k else 0
        return sum(t.raw.size * elem for t in (*self.self_k, *self.self_v))


@dataclass
class FxDecoderKVCache:
    """Incremental decoding state over a deployed decoder stack."""

    module: DecoderModule
    weights: QuantizedDecoder
    memory: FxTensor
    layers: List[FxLayerKVCache]

    @classmethod
    def initialize(
        cls, module: DecoderModule, weights: QuantizedDecoder,
        memory: FxTensor,
    ) -> "FxDecoderKVCache":
        """Empty cache; cross-attention K/V projected once from memory."""
        project = module.attention.project
        layers = []
        for layer in weights.layers:
            d_k = layer.self_wq[0].weight.raw.shape[1]
            empty = lambda: FxTensor(  # noqa: E731
                np.empty((0, d_k), dtype=np.int64), module.formats.qkv)
            layers.append(FxLayerKVCache(
                self_k=[empty() for _ in layer.self_wk],
                self_v=[empty() for _ in layer.self_wv],
                cross_k=[project(memory, w) for w in layer.cross_wk],
                cross_v=[project(memory, w) for w in layer.cross_wv],
            ))
        return cls(module=module, weights=weights, memory=memory,
                   layers=layers)

    @property
    def seq_len(self) -> int:
        """Tokens decoded so far (= cached key rows per head)."""
        return self.layers[0].seq_len if self.layers else 0

    def cache_bytes(self) -> int:
        """Total K/V residency across layers (capacity planning)."""
        return sum(layer.cache_bytes() for layer in self.layers)

    # ------------------------------------------------------------------
    def _append(self, store: List[FxTensor], head: int, row: FxTensor) -> None:
        store[head] = FxTensor(
            np.concatenate([store[head].raw, row.raw]), row.fmt)

    def step(self, x_row: FxTensor) -> FxTensor:
        """Decode one token; returns its output row ``(1, d_model)``."""
        synth = self.module.synth
        if self.seq_len >= synth.max_seq_len:
            raise ResynthesisRequiredError(
                f"KV cache already holds {self.seq_len} positions — the "
                f"synthesized buffers stop at max_seq_len="
                f"{synth.max_seq_len}")
        x = x_row
        if x.raw.ndim == 1:
            x = FxTensor(x.raw.reshape(1, -1), x.fmt)
        if x.raw.shape[0] != 1:
            raise ValueError("decode step expects exactly one target row")
        d_model = x.raw.shape[1]
        for layer, cache in zip(self.weights.layers, self.layers):
            x = self._layer_step(x, layer, cache, d_model)
        return x

    def _layer_step(
        self, x: FxTensor, layer: QuantizedDecoderLayer,
        cache: FxLayerKVCache, d_model: int,
    ) -> FxTensor:
        att, ffn = self.module.attention, self.module.ffn
        # Masked self-attention against the (appended) cache: the
        # newest row is the last, so the mask unit blocks no lane.
        outs = []
        for h in range(layer.num_heads):
            self._append(cache.self_k, h, att.project(x, layer.self_wk[h]))
            self._append(cache.self_v, h, att.project(x, layer.self_wv[h]))
            outs.append(att.attend(att.project(x, layer.self_wq[h]),
                                   cache.self_k[h], cache.self_v[h],
                                   d_model, masked=True)[2])
        _, h1 = ffn.project_residual(att.concat(outs), layer.self_wo, x,
                                     layer.ln1_gamma, layer.ln1_beta)
        # Cross attention over the precomputed memory projections.
        ca = att.concat([
            att.attend(att.project(h1, wq), k, v, d_model)[2]
            for wq, k, v in zip(layer.cross_wq, cache.cross_k,
                                cache.cross_v)])
        _, h2 = ffn.project_residual(ca, layer.cross_wo, h1,
                                     layer.ln2_gamma, layer.ln2_beta)
        return ffn.feed_forward(h2, layer.w1, layer.w2, layer.activation,
                                layer.ln3_gamma, layer.ln3_beta)[2]

    def prefill(self, prompt: FxTensor) -> FxTensor:
        """Decode every prompt row in order; returns all output rows."""
        if prompt.raw.ndim != 2 or prompt.raw.shape[0] < 1:
            raise ValueError("prompt must be a non-empty (SL, d) matrix")
        rows = [self.step(prompt[t:t + 1]).raw
                for t in range(prompt.raw.shape[0])]
        return FxTensor(np.concatenate(rows), self.module.formats.activation)
