"""Multi-FPGA model parallelism: partition one workload across devices.

The layers below answer "one inference on one device takes X ms"
(:mod:`repro.core`) and "a fleet of independent devices serves Y req/s"
(:mod:`repro.serving`).  This package adds the missing axis between
them — **model parallelism**: a workload too large (or an SLO too
tight) for one device is split across K instances of the same
synthesized design,

* **pipeline-wise** — contiguous layer ranges per stage, balanced by an
  exact DP over per-layer cycle costs (:mod:`.partition`);
* **tensor-wise** — attention heads and FFN tile slices within a stage
  (:mod:`.partition`), all-reduced over the interconnect;

with stage boundaries priced by a serial-link cost model
(:mod:`.interconnect`, Aurora/Ethernet/PCIe presets) and the composed
pipeline — fill latency, steady-state throughput, per-stage bubbles,
Gantt timelines — evaluated by :mod:`.pipeline`.  :mod:`.group` wraps a
plan as a drop-in serving instance so fleet searches trade replica
count against pipeline depth.

Quickstart::

    from repro import ProTEA, SynthParams, get_model
    from repro.parallel import PipelinePartitioner

    accel = ProTEA.synthesize(SynthParams())
    plan = PipelinePartitioner(accel).best_plan(get_model("bert-variant"), 4)
    print(plan.latency_ms, plan.steady_state_inf_per_s)
    print(plan.timeline(n_items=6).gantt())
"""

from .group import PipelineGroup, PipelineReport
from .interconnect import (
    AURORA_64B66B,
    ETHERNET_10G,
    ETHERNET_100G,
    LINKS,
    PCIE_GEN4_X8,
    InterconnectLink,
    get_link,
)
from .partition import (
    StagePlan,
    activation_bytes,
    balanced_partition,
    tp_allreduce_cycles,
    validate_tensor_parallel,
)
from .pipeline import DecodePipelineReport, PipelinePartitioner, PipelinePlan

__all__ = [
    # interconnect
    "InterconnectLink", "AURORA_64B66B", "ETHERNET_100G", "ETHERNET_10G",
    "PCIE_GEN4_X8", "LINKS", "get_link",
    # partition
    "balanced_partition", "validate_tensor_parallel",
    "activation_bytes", "tp_allreduce_cycles", "StagePlan",
    # pipeline
    "PipelinePartitioner", "PipelinePlan", "DecodePipelineReport",
    # serving adapter
    "PipelineGroup", "PipelineReport",
]
