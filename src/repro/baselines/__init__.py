"""Baseline performance models: CPUs, GPUs, competitor FPGA designs,
and the paper's sparsity what-if arithmetic."""

from .cpu import intel_i5_4460, intel_i5_5257u
from .fpga_competitors import TABLE2_COMPETITORS, CompetitorRecord
from .gpu import jetson_tx2, rtx_3060, titan_xp_hep, titan_xp_nlp
from .roofline import PlatformModel, anchored_platform
from .sparsity import SparsityWhatIf, sparsity_adjusted_latency, what_if

__all__ = [
    "PlatformModel",
    "anchored_platform",
    "intel_i5_5257u",
    "intel_i5_4460",
    "jetson_tx2",
    "titan_xp_hep",
    "titan_xp_nlp",
    "rtx_3060",
    "CompetitorRecord",
    "TABLE2_COMPETITORS",
    "sparsity_adjusted_latency",
    "SparsityWhatIf",
    "what_if",
]
