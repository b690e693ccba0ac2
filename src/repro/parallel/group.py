"""A multi-FPGA pipeline group that serves like one instance.

:class:`PipelineGroup` presents the same surface the serving layer
expects of a single :class:`~repro.core.accelerator.ProTEA` —
``synth``, ``clock_mhz``, ``program()``, ``latency_report()`` — while
pricing every request through a :class:`~repro.parallel.pipeline.
PipelinePlan`.  That duck typing is the point: a group drops straight
into :class:`~repro.serving.cluster.ClusterSimulator` and
:func:`~repro.serving.slo.plan_capacity`, so fleet searches can trade
*replica count* against *pipeline depth* with no serving-layer changes.

A group can also serve models a single device cannot: each stage
programs only its own layer range, so ``num_layers`` may exceed the
synthesized ``max_layers`` as long as every stage's slice fits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .._checks import check_count
from ..core.accelerator import ProTEA
from ..nn.model_zoo import TransformerConfig
from .interconnect import AURORA_64B66B, InterconnectLink
from .pipeline import PipelinePartitioner, PipelinePlan

__all__ = ["PipelineReport", "PipelineGroup"]


@dataclass(frozen=True)
class PipelineReport:
    """Latency-report view of one plan (mirrors
    :class:`~repro.core.latency.LatencyReport`'s consumer surface)."""

    plan: PipelinePlan

    @property
    def config(self) -> TransformerConfig:
        return self.plan.config

    @property
    def total_cycles(self) -> int:
        return self.plan.fill_cycles

    @property
    def latency_ms(self) -> float:
        return self.plan.latency_ms

    @property
    def latency_s(self) -> float:
        return self.latency_ms / 1e3

    @property
    def steady_state_inf_per_s(self) -> float:
        return self.plan.steady_state_inf_per_s


class PipelineGroup:
    """``n_devices`` pipelined instances of one synthesized design.

    Each workload is served on the best feasible pipeline-depth x
    tensor-width factorization for *latency*, because the serving layer
    charges each invocation its end-to-end (fill) time — tensor splits
    shrink that, pipeline depth does not.  The DSE prices a
    ``devices > 1`` point by this same plan
    (:func:`~repro.dse.objectives.design_point`).  Plans are memoized
    per config — the cycle model is deterministic, so the cache is
    exact.
    """

    def __init__(
        self,
        accel: ProTEA,
        n_devices: int,
        link: InterconnectLink = AURORA_64B66B,
    ):
        check_count("n_devices", n_devices)
        self.accel = accel
        self.n_devices = n_devices
        self.partitioner = PipelinePartitioner(accel, link)
        self._plans: Dict[TransformerConfig, PipelinePlan] = {}
        self._config: Optional[TransformerConfig] = None

    # ------------------------------------------------------------------
    # ProTEA-compatible surface (what the serving layer touches)
    # ------------------------------------------------------------------
    @property
    def synth(self):
        return self.accel.synth

    @property
    def clock_mhz(self) -> float:
        return self.accel.clock_mhz

    @property
    def device(self):
        return self.accel.device

    @property
    def link(self) -> InterconnectLink:
        return self.partitioner.link

    def plan_for(self, config: TransformerConfig) -> PipelinePlan:
        """The (memoized) partition plan serving ``config``."""
        plan = self._plans.get(config)
        if plan is None:
            plan = self._plans[config] = self.partitioner.best_plan(
                config, self.n_devices, objective="latency")
        return plan

    def program(self, config: TransformerConfig) -> "PipelineGroup":
        """Deploy ``config`` across the group (validates every stage)."""
        self.plan_for(config)  # raises if any stage cannot be programmed
        self._config = config
        return self

    @property
    def config(self) -> TransformerConfig:
        if self._config is None:
            raise RuntimeError("group not programmed; call program()")
        return self._config

    def latency_report(
        self, config: Optional[TransformerConfig] = None
    ) -> PipelineReport:
        """Pipeline latency of ``config`` (default: programmed)."""
        cfg = config or self.config
        return PipelineReport(plan=self.plan_for(cfg))

    def latency_ms(self, config: Optional[TransformerConfig] = None) -> float:
        return self.latency_report(config).latency_ms

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line group description (examples/reports)."""
        return (
            f"PipelineGroup: {self.n_devices} x {self.accel.device.name} "
            f"@ {self.clock_mhz:.0f} MHz over {self.link.name} "
            f"({self.link.payload_gbps:.0f} Gb/s payload, "
            f"{self.link.latency_us:g} us)"
        )
