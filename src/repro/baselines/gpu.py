"""GPU comparators of Table III.

Published anchors:

* Jetson TX2 @ 1.3 GHz — 0.673 ms on model #1 (from [21]).
* NVIDIA Titan XP @ 1.4 GHz — 1.062 ms on model #2 (from [23]) and
  147 ms on model #4 (from [28]); two separate anchored instances
  because the cited works measured under very different software
  stacks (the 147 ms number includes framework overheads the 1.062 ms
  HEP measurement does not).
* NVIDIA RTX 3060 @ 1.3 GHz — 0.71 ms on model #3 (from [25]).
"""

from __future__ import annotations

from ..nn.model_zoo import get_model
from .roofline import PlatformModel, anchored_platform

__all__ = [
    "jetson_tx2",
    "titan_xp_hep",
    "titan_xp_nlp",
    "rtx_3060",
]


def jetson_tx2() -> PlatformModel:
    """Embedded Pascal GPU (anchor: model #1, 0.673 ms)."""
    return anchored_platform(
        name="Jetson TX2 GPU",
        frequency_ghz=1.3,
        mem_bandwidth_gbps=59.7,
        anchor_config=get_model("model1-peng-isqed21"),
        anchor_latency_ms=0.673,
        overhead_ms=0.05,
        notes="published in [21] (pruned model)",
    )


def titan_xp_hep() -> PlatformModel:
    """Titan XP under the HEP stack of [23] (anchor: model #2, 1.062 ms)."""
    return anchored_platform(
        name="NVIDIA Titan XP GPU",
        frequency_ghz=1.4,
        mem_bandwidth_gbps=547.6,
        anchor_config=get_model("model2-lhc-trigger"),
        anchor_latency_ms=1.062,
        overhead_ms=0.5,  # tiny model: latency is dominated by launch cost
        notes="published in [23]",
    )


def titan_xp_nlp() -> PlatformModel:
    """Titan XP under the NLP stack of [28] (anchor: model #4, 147 ms)."""
    return anchored_platform(
        name="NVIDIA Titan XP GPU",
        frequency_ghz=1.4,
        mem_bandwidth_gbps=547.6,
        anchor_config=get_model("model4-qi-iccad21"),
        anchor_latency_ms=147.0,
        overhead_ms=1.0,
        notes="published in [28]; includes framework overheads",
    )


def rtx_3060() -> PlatformModel:
    """Ampere desktop GPU (anchor: model #3, 0.71 ms)."""
    return anchored_platform(
        name="NVIDIA RTX 3060 GPU",
        frequency_ghz=1.3,
        mem_bandwidth_gbps=360.0,
        anchor_config=get_model("model3-efa-trans"),
        anchor_latency_ms=0.71,
        overhead_ms=0.05,
        notes="published in [25]; aggressive sparsity on their side",
    )


