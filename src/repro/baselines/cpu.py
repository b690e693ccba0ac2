"""CPU comparators of Table III.

Published anchors (Table III of the paper):

* Intel i5-5257U @ 2.7 GHz — 3.54 ms on model #1 (from [21]).
* Intel i5-4460 @ 3.2 GHz — 4.66 ms on model #3 (from [25]).

Hardware bandwidths from the respective Intel ARK entries.
"""

from __future__ import annotations

from ..nn.model_zoo import get_model
from .roofline import PlatformModel, anchored_platform

__all__ = ["intel_i5_5257u", "intel_i5_4460"]


def intel_i5_5257u() -> PlatformModel:
    """Broadwell dual-core laptop CPU (anchor: model #1, 3.54 ms)."""
    return anchored_platform(
        name="Intel i5-5257U CPU",
        frequency_ghz=2.7,
        mem_bandwidth_gbps=25.6,
        anchor_config=get_model("model1-peng-isqed21"),
        anchor_latency_ms=3.54,
        overhead_ms=0.1,
        notes="published in [21]; their CPU run uses the pruned model",
    )


def intel_i5_4460() -> PlatformModel:
    """Haswell desktop CPU (anchor: model #3, 4.66 ms)."""
    return anchored_platform(
        name="Intel i5-4460 CPU",
        frequency_ghz=3.2,
        mem_bandwidth_gbps=25.6,
        anchor_config=get_model("model3-efa-trans"),
        anchor_latency_ms=4.66,
        overhead_ms=0.1,
        notes="published in [25]",
    )


