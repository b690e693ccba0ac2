"""Named transformer configurations used throughout the evaluation.

``BERT_VARIANT`` is the paper's primary workload (Section V: "a variant
of BERT ... 768, 8, 12, and 64").  ``MODEL_1``–``MODEL_4`` are the four
TNN models of Tables II/III, whose hyper-parameters come from the cited
competitor papers; where a cited paper does not state a parameter we
pick the closest conventional value and note it (these models' absolute
sizes only affect absolute ms, not who wins).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from .._checks import is_count

__all__ = ["TransformerConfig", "MODEL_ZOO", "BERT_VARIANT", "get_model", "table1_tests"]


@dataclass(frozen=True)
class TransformerConfig:
    """Hyper-parameters of an encoder-only transformer workload.

    These are exactly the four runtime-programmable parameters of
    ProTEA plus the static choices (activation, d_ff multiple).
    """

    name: str
    d_model: int
    num_heads: int
    num_layers: int
    seq_len: int
    d_ff: int = 0  # 0 → 4*d_model
    activation: str = "gelu"
    scale_mode: str = "sqrt_dk"
    notes: str = ""

    def __post_init__(self) -> None:
        # Counts first: the divisibility test divides by num_heads.
        if not all(map(is_count, (self.d_model, self.num_heads,
                                  self.num_layers, self.seq_len))):
            raise ValueError(f"{self.name}: all dimensions must be positive")
        if self.d_model % self.num_heads:
            raise ValueError(
                f"{self.name}: d_model={self.d_model} not divisible by "
                f"num_heads={self.num_heads}"
            )
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)

    @property
    def d_k(self) -> int:
        """Per-head dimension ``d_model / h``."""
        return self.d_model // self.num_heads

    def with_(self, **kwargs) -> "TransformerConfig":
        """Functional update (keeps frozen semantics)."""
        return replace(self, **kwargs)


#: The paper's primary configuration (Table I test #1).
BERT_VARIANT = TransformerConfig(
    name="bert-variant",
    d_model=768,
    num_heads=8,
    num_layers=12,
    seq_len=64,
    notes="Section V: BERT variant with h=8 (not 12) fitted to the U55C",
)

MODEL_ZOO: Dict[str, TransformerConfig] = {
    "bert-variant": BERT_VARIANT,
    # Table II/III model #1 — workload of Peng et al. [21] (column-balanced
    # block pruning, ISQED'21): shallow encoder used for their latency study.
    "model1-peng-isqed21": TransformerConfig(
        name="model1-peng-isqed21",
        d_model=768,
        num_heads=8,
        num_layers=1,
        seq_len=32,
        notes="single encoder layer, short sequence (cited work reports "
        "per-layer latency on a pruned shallow model)",
    ),
    # Model #2 — Wojcicki et al. [23] LHC trigger TNN: tiny physics model.
    "model2-lhc-trigger": TransformerConfig(
        name="model2-lhc-trigger",
        d_model=64,
        num_heads=2,
        num_layers=1,
        seq_len=20,
        activation="relu",
        notes="high-energy-physics trigger model: O(10^5) ops, "
        "latency dominated by fixed overheads",
    ),
    # Model #3 — EFA-Trans [25] workload (ZCU102, dense mode).
    "model3-efa-trans": TransformerConfig(
        name="model3-efa-trans",
        d_model=512,
        num_heads=8,
        num_layers=2,
        seq_len=64,
        notes="base transformer block pair as evaluated by EFA-Trans",
    ),
    # Model #4 — Qi et al. [28] (ICCAD'21) co-optimized transformer.
    "model4-qi-iccad21": TransformerConfig(
        name="model4-qi-iccad21",
        d_model=768,
        num_heads=8,
        num_layers=2,
        seq_len=64,
        notes="two-layer encoder slice of their BERT-class model",
    ),
    # FTRANS [29] runs the same BERT-class workload as model #1 in Table II.
    "ftrans-workload": TransformerConfig(
        name="ftrans-workload",
        d_model=768,
        num_heads=8,
        num_layers=1,
        seq_len=32,
        notes="shares the model #1 row (paper reports ProTEA at 4.48 ms "
        "for both the [21] and [29] comparisons)",
    ),
}


def get_model(name: str) -> TransformerConfig:
    """Look up a named configuration (raises ``KeyError`` with choices)."""
    try:
        return MODEL_ZOO[name]
    except KeyError:
        raise KeyError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}"
        ) from None


def table1_tests() -> Dict[int, TransformerConfig]:
    """The nine runtime-programmability tests of Table I.

    All nine run on the *same* synthesized accelerator; only the
    runtime-programmable parameters change.
    """
    base = BERT_VARIANT
    return {
        1: base.with_(name="test1"),
        2: base.with_(name="test2", num_heads=4),
        3: base.with_(name="test3", num_heads=2),
        4: base.with_(name="test4", num_layers=8),
        5: base.with_(name="test5", num_layers=4),
        6: base.with_(name="test6", d_model=512, d_ff=4 * 512),
        7: base.with_(name="test7", d_model=256, d_ff=4 * 256),
        8: base.with_(name="test8", seq_len=128),
        9: base.with_(name="test9", seq_len=32),
    }
