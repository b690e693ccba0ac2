"""Mini-HLS substrate: pragmas, loop-nest IR, scheduler, arrays, timing.

This package stands in for Vitis HLS in the reproduction: the ProTEA
engines (``repro.core``) are described as pragma-annotated loop nests,
and this package turns them into cycle counts
(:func:`~repro.hls.scheduler.schedule_loop`), resource estimates
(:func:`~repro.hls.resources.estimate_loop_resources`) and an
achievable clock (:class:`~repro.hls.timing.TimingModel`).
"""

from .arrays import LUTRAM_THRESHOLD_BITS, ArraySpec, BankBinding
from .loopnest import Body, Loop, Statement, walk_statements
from .pragmas import ArrayPartition, PartitionKind, Pipeline, Unroll
from .resources import (
    FF_PER_BANK,
    FF_PER_PE,
    LUT_PER_BANK_MUX,
    LUT_PER_PE,
    ResourceEstimate,
    estimate_loop_resources,
    static_infrastructure,
)
from .scheduler import LoopSchedule, schedule_loop
from .timing import DEFAULT_TIMING, EnginePath, TimingModel, tile_regularity

__all__ = [
    "Pipeline",
    "Unroll",
    "ArrayPartition",
    "PartitionKind",
    "Statement",
    "Loop",
    "Body",
    "walk_statements",
    "LoopSchedule",
    "schedule_loop",
    "ArraySpec",
    "BankBinding",
    "LUTRAM_THRESHOLD_BITS",
    "ResourceEstimate",
    "estimate_loop_resources",
    "static_infrastructure",
    "LUT_PER_PE",
    "FF_PER_PE",
    "LUT_PER_BANK_MUX",
    "FF_PER_BANK",
    "TimingModel",
    "EnginePath",
    "DEFAULT_TIMING",
    "tile_regularity",
]
