"""Golden float transformer reference — the correctness oracle.

Provides the encoder stack (Fig. 1), multi-head attention (Fig. 2),
model zoo configurations used in the evaluation, and the weight
store/extractor that stands in for the paper's PyTorch ``.pth`` flow.
"""

from .attention import AttentionTrace, MultiHeadAttention
from .decoder import CrossAttention, Decoder, DecoderLayer, causal_mask
from .encoder import ACTIVATIONS, Encoder, EncoderLayer, FeedForward
from .functional import (
    attention_scale,
    causal_fill,
    gelu,
    layer_norm,
    relu,
    scaled_dot_product_attention,
    score_mask_value,
    softmax,
)
from .kv_cache import DecoderKVCache, LayerKVCache
from .linear import Linear, xavier_uniform
from .model_zoo import BERT_VARIANT, MODEL_ZOO, TransformerConfig, get_model, table1_tests
from .weights import (
    ExtractedParams,
    build_encoder,
    encoder_state_dict,
    extract_hyperparameters,
    load_encoder,
    save_encoder,
)

__all__ = [
    "softmax",
    "relu",
    "gelu",
    "layer_norm",
    "scaled_dot_product_attention",
    "attention_scale",
    "score_mask_value",
    "causal_fill",
    "DecoderKVCache",
    "LayerKVCache",
    "Linear",
    "xavier_uniform",
    "MultiHeadAttention",
    "AttentionTrace",
    "CrossAttention",
    "Decoder",
    "DecoderLayer",
    "causal_mask",
    "FeedForward",
    "EncoderLayer",
    "Encoder",
    "ACTIVATIONS",
    "TransformerConfig",
    "MODEL_ZOO",
    "BERT_VARIANT",
    "get_model",
    "table1_tests",
    "build_encoder",
    "encoder_state_dict",
    "save_encoder",
    "load_encoder",
    "extract_hyperparameters",
    "ExtractedParams",
]
