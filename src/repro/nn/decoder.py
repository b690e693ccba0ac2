"""Golden transformer decoder (Fig. 1, decoder side).

The paper's future-work target: "extend the architecture to support
both encoder and decoder layers of the transformer, using the same
design principles."  This module provides the float oracle for that
extension: masked self-attention (so position *i* cannot see *j > i*),
encoder–decoder cross attention, and the position-wise FFN, each with
its residual + post-layer-norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .._checks import is_count
from .attention import MultiHeadAttention
from .encoder import FeedForward
from .functional import attention_scale, layer_norm, score_mask_value, softmax
from .linear import Linear

__all__ = ["causal_mask", "CrossAttention", "DecoderLayer", "Decoder"]


def causal_mask(seq_len: int, dtype=np.float64) -> np.ndarray:
    """Additive mask blocking future positions (upper triangle).

    The mask value is the *dtype's* finite minimum (see
    :func:`~repro.nn.functional.score_mask_value`), so adding it forces
    a masked score to the score format's minimum without ever leaving
    the representable range — a fixed ``-1e30`` breaks under float32
    downcasts.
    """
    if not is_count(seq_len):
        raise ValueError("seq_len must be positive")
    fill = score_mask_value(dtype)
    return np.triu(np.full((seq_len, seq_len), fill, dtype=dtype), k=1)


@dataclass
class CrossAttention:
    """Encoder–decoder attention: queries from the decoder state,
    keys/values from the encoder memory.

    Stored per head exactly like :class:`MultiHeadAttention` so the
    accelerator can reuse the same per-head engine layout.
    """

    wq: List[Linear]
    wk: List[Linear]
    wv: List[Linear]
    wo: Linear
    scale_mode: str = "sqrt_dk"

    @classmethod
    def initialize(
        cls, rng: np.random.Generator, d_model: int, num_heads: int,
        scale_mode: str = "sqrt_dk",
    ) -> "CrossAttention":
        if d_model % num_heads:
            raise ValueError("d_model must be divisible by num_heads")
        d_k = d_model // num_heads
        mk = lambda: Linear.initialize(rng, d_model, d_k)  # noqa: E731
        return cls(
            wq=[mk() for _ in range(num_heads)],
            wk=[mk() for _ in range(num_heads)],
            wv=[mk() for _ in range(num_heads)],
            wo=Linear.initialize(rng, d_model, d_model),
            scale_mode=scale_mode,
        )

    @property
    def num_heads(self) -> int:
        return len(self.wq)

    @property
    def d_k(self) -> int:
        return self.wq[0].out_features

    def __call__(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        """Attend decoder positions (``x``) over encoder ``memory``."""
        x = np.asarray(x, dtype=np.float64)
        memory = np.asarray(memory, dtype=np.float64)
        if x.shape[1] != memory.shape[1]:
            raise ValueError("decoder state and memory widths differ")
        d_model = x.shape[1]
        scale = attention_scale(self.d_k, d_model, self.scale_mode)
        heads = []
        for i in range(self.num_heads):
            q = self.wq[i](x)
            k = self.wk[i](memory)
            v = self.wv[i](memory)
            w = softmax((q @ k.T) * scale, axis=-1)
            heads.append(w @ v)
        return self.wo(np.concatenate(heads, axis=-1))


@dataclass
class DecoderLayer:
    """Masked self-attention + cross attention + FFN (post-LN)."""

    self_attention: MultiHeadAttention
    cross_attention: CrossAttention
    ffn: FeedForward
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    ln3_gamma: np.ndarray
    ln3_beta: np.ndarray
    eps: float = 1e-5

    @classmethod
    def initialize(
        cls, rng: np.random.Generator, d_model: int, num_heads: int,
        d_ff: Optional[int] = None, activation: str = "gelu",
        scale_mode: str = "sqrt_dk",
    ) -> "DecoderLayer":
        ones, zeros = np.ones(d_model), np.zeros(d_model)
        return cls(
            self_attention=MultiHeadAttention.initialize(
                rng, d_model, num_heads, scale_mode),
            cross_attention=CrossAttention.initialize(
                rng, d_model, num_heads, scale_mode),
            ffn=FeedForward.initialize(rng, d_model, d_ff, activation),
            ln1_gamma=ones.copy(), ln1_beta=zeros.copy(),
            ln2_gamma=ones.copy(), ln2_beta=zeros.copy(),
            ln3_gamma=ones.copy(), ln3_beta=zeros.copy(),
        )

    def __call__(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mask = causal_mask(x.shape[0])
        h1 = layer_norm(x + self.self_attention(x, mask=mask),
                        self.ln1_gamma, self.ln1_beta, self.eps)
        h2 = layer_norm(h1 + self.cross_attention(h1, memory),
                        self.ln2_gamma, self.ln2_beta, self.eps)
        return layer_norm(h2 + self.ffn(h2),
                          self.ln3_gamma, self.ln3_beta, self.eps)


@dataclass
class Decoder:
    """A stack of ``N`` identical decoder layers."""

    layers: List[DecoderLayer] = field(default_factory=list)

    @classmethod
    def initialize(
        cls, rng: np.random.Generator, num_layers: int, d_model: int,
        num_heads: int, d_ff: Optional[int] = None, activation: str = "gelu",
        scale_mode: str = "sqrt_dk",
    ) -> "Decoder":
        return cls(layers=[
            DecoderLayer.initialize(rng, d_model, num_heads, d_ff,
                                    activation, scale_mode)
            for _ in range(num_layers)
        ])

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def __call__(self, x: np.ndarray, memory: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x, memory)
        return x
