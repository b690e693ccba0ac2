"""Multi-FPGA scaling curve — beyond the paper's single device.

For each zoo workload and device count K, the best feasible
pipeline-depth x tensor-width factorization is planned and priced:
single-inference (fill) latency, steady-state throughput, speedup over
one device, and pipeline efficiency (speedup / K).  The table makes the
scaling story quantitative: balanced layer counts scale near-linearly
until the interconnect or an indivisible layer count caps the depth,
and shallow models recover scaling through head-wise tensor splits.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from ..analysis.tables import render_table
from ..nn.model_zoo import get_model
from ..parallel import AURORA_64B66B, InterconnectLink, PipelinePartitioner
from .common import ExperimentResult, default_accelerator

__all__ = ["MODELS", "DEVICE_COUNTS", "run", "render", "main"]

#: Workloads with contrasting depth: 12 balanced layers vs 2 layers
#: (which must lean on tensor parallelism past K=2).
MODELS: Tuple[str, ...] = ("bert-variant", "model3-efa-trans")

DEVICE_COUNTS: Tuple[int, ...] = (1, 2, 4, 8)


def run(
    models: Sequence[str] = MODELS,
    device_counts: Sequence[int] = DEVICE_COUNTS,
    link: InterconnectLink = AURORA_64B66B,
) -> ExperimentResult:
    """Plan the scaling curve on the default synthesized instance.

    A device count with no feasible factorization for a model is
    skipped (:meth:`~repro.parallel.PipelinePartitioner.scaling_curve`);
    unknown models and genuine partitioner bugs propagate.
    """
    partitioner = PipelinePartitioner(default_accelerator(), link)
    counts = tuple(sorted(device_counts))
    rows = []
    series = {}
    for name in models:
        curve = partitioner.scaling_curve(get_model(name), counts)
        base = curve[min(curve)]
        series[name] = [
            (k, p.steady_state_inf_per_s) for k, p in curve.items()
        ]
        for k, plan in curve.items():
            speedup = plan.speedup_over(base.bottleneck_cycles)
            rows.append((
                name, k, plan.num_stages, plan.stages[0].tp_ways,
                plan.latency_ms, plan.steady_state_inf_per_s,
                speedup, speedup / k, plan.bubble_fraction,
            ))
    return ExperimentResult(
        name="scaling",
        headers=["model", "devices", "stages", "tp", "latency ms",
                 "inf/s", "speedup", "efficiency", "bubbles"],
        rows=rows,
        notes=[f"link: {link.name} ({link.payload_gbps:.0f} Gb/s payload, "
               f"{link.latency_us:g} us)",
               "latency = pipeline fill (one inference); inf/s = "
               "steady-state bottleneck rate"],
        series=series,
    )


def render(result: ExperimentResult | None = None) -> str:
    """Paper-style text table of the scaling curve."""
    result = result or run()
    table = render_table(
        result.headers, result.rows,
        title="Multi-FPGA scaling (pipeline + tensor parallel)")
    return table + "\n" + "\n".join(f"note: {n}" for n in result.notes)


def main() -> None:  # pragma: no cover - convenience entry
    print(render())
