"""Pipelined multi-FPGA execution: plans, performance, timelines.

A :class:`PipelinePlan` is the fully-priced result of partitioning one
:class:`~repro.nn.model_zoo.TransformerConfig` across devices: stage
assignments, per-stage cycles, the inter-stage activation transfer, and
the derived pipeline quantities —

* **fill latency** — one item traversing every stage and link (this is
  also the single-inference latency);
* **steady-state period** — the bottleneck resource (slowest stage or
  the link), which sets throughput once the pipeline is full;
* **bubbles** — per-stage idle cycles each period, the imbalance the
  partitioner could not remove.

``K=1`` degenerates to the single-device analytic model *exactly*:
one stage, no links, fill = ``num_layers x layer.total`` — the same
total :meth:`~repro.core.latency.LatencyModel.evaluate` reports
(property-tested).

:meth:`PipelinePlan.timeline` renders an item stream through the
stages as a :class:`~repro.core.timeline.Timeline`, so ``gantt()``
shows fill, steady state, and drain across devices and links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..core.accelerator import ProTEA
from ..core.timeline import Timeline, TimelineEvent
from ..isa.controller import ResynthesisRequiredError
from ..nn.model_zoo import TransformerConfig
from .interconnect import AURORA_64B66B, InterconnectLink
from .partition import (
    StagePlan,
    activation_bytes,
    balanced_partition,
    tp_allreduce_cycles,
    validate_tensor_parallel,
)

__all__ = ["PipelinePlan", "DecodePipelineReport", "PipelinePartitioner"]


@dataclass(frozen=True)
class DecodePipelineReport:
    """Pipeline-parallel autoregressive decode: one token per microbatch.

    Each generated token's single activation row flows through the
    stages.  Tokens of *one* sequence are strictly sequential (token
    ``t+1`` needs token ``t``), so a lone sequence pays the whole
    per-token path each step; with at least ``num_stages`` concurrent
    sequences interleaved (continuous batching), stages stay full and
    the bottleneck stage sets the aggregate token rate.
    """

    config: TransformerConfig
    clock_mhz: float
    link: InterconnectLink
    prompt_len: int
    cache_len: int
    #: Per-stage cycles to decode one token at ``cache_len``.
    stage_cycles: Tuple[int, ...]
    #: One token's activation row crossing a stage boundary.
    link_cycles: int
    #: Prompt prefill through the pipeline (emits the first token).
    prefill_fill_cycles: int

    @property
    def num_stages(self) -> int:
        return len(self.stage_cycles)

    @property
    def per_token_cycles(self) -> int:
        """One token end to end: every stage plus every link hop."""
        return (sum(self.stage_cycles)
                + (self.num_stages - 1) * self.link_cycles)

    @property
    def per_token_ms(self) -> float:
        return self.per_token_cycles / (self.clock_mhz * 1e3)

    @property
    def ttft_ms(self) -> float:
        """Prompt prefill through every stage (first token out)."""
        return self.prefill_fill_cycles / (self.clock_mhz * 1e3)

    @property
    def bottleneck_cycles(self) -> int:
        worst = max(self.stage_cycles)
        return max(worst, self.link_cycles if self.num_stages > 1 else 0)

    @property
    def sequential_tokens_per_s(self) -> float:
        """Decode rate of a single sequence (no overlap possible)."""
        return self.clock_mhz * 1e6 / self.per_token_cycles

    @property
    def steady_tokens_per_s(self) -> float:
        """Aggregate rate with >= num_stages interleaved sequences."""
        return self.clock_mhz * 1e6 / self.bottleneck_cycles

    def as_dict(self) -> dict:
        return {
            "model": self.config.name,
            "clock_mhz": self.clock_mhz,
            "link": self.link.name,
            "prompt_tokens": self.prompt_len,
            "cache_len": self.cache_len,
            "pipeline_stages": self.num_stages,
            "stage_cycles": list(self.stage_cycles),
            "link_cycles_per_token": self.link_cycles,
            "ttft_ms": self.ttft_ms,
            "per_token_ms": self.per_token_ms,
            "sequential_tokens_per_s": self.sequential_tokens_per_s,
            "steady_tokens_per_s": self.steady_tokens_per_s,
        }


@dataclass(frozen=True)
class PipelinePlan:
    """A priced partition of one workload across a device group."""

    config: TransformerConfig
    clock_mhz: float
    link: InterconnectLink
    stages: Tuple[StagePlan, ...]
    #: Bytes of the activation tensor crossing each stage boundary.
    boundary_bytes: int
    #: Cycles of one boundary crossing at the kernel clock.
    link_cycles: int

    # ------------------------------------------------------------------
    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def n_devices(self) -> int:
        return sum(s.tp_ways for s in self.stages)

    @property
    def stage_cycles(self) -> Tuple[int, ...]:
        return tuple(s.cycles for s in self.stages)

    @property
    def interconnect_cycles(self) -> int:
        """Total link cycles one item pays end to end."""
        return (self.num_stages - 1) * self.link_cycles

    @property
    def fill_cycles(self) -> int:
        """First item in → first item out (also one inference)."""
        return sum(self.stage_cycles) + self.interconnect_cycles

    @property
    def fill_ms(self) -> float:
        return self.fill_cycles / (self.clock_mhz * 1e3)

    @property
    def latency_ms(self) -> float:
        """Single-inference latency (= fill)."""
        return self.fill_ms

    @property
    def bottleneck_cycles(self) -> int:
        """Steady-state period: the slowest stage or the link."""
        worst_stage = max(self.stage_cycles)
        return max(worst_stage,
                   self.link_cycles if self.num_stages > 1 else 0)

    @property
    def steady_state_inf_per_s(self) -> float:
        """Items per second once the pipeline is full."""
        return self.clock_mhz * 1e6 / self.bottleneck_cycles

    @property
    def bubble_cycles(self) -> Tuple[int, ...]:
        """Per-stage idle cycles every steady-state period."""
        period = self.bottleneck_cycles
        return tuple(period - c for c in self.stage_cycles)

    @property
    def bubble_fraction(self) -> float:
        """Fraction of steady-state device time lost to imbalance."""
        period = self.bottleneck_cycles
        return sum(self.bubble_cycles) / (period * self.num_stages)

    def speedup_over(self, single_device_cycles: int) -> float:
        """Steady-state speedup versus one device at the same clock."""
        if single_device_cycles <= 0:
            raise ValueError("single_device_cycles must be positive")
        return single_device_cycles / self.bottleneck_cycles

    # ------------------------------------------------------------------
    def batch_cycles(self, n_items: int) -> int:
        """Makespan of ``n_items`` streamed through the pipeline."""
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        return self.fill_cycles + (n_items - 1) * self.bottleneck_cycles

    def timeline(self, n_items: int = 4) -> Timeline:
        """Schedule ``n_items`` through stages and links.

        Resources are ``fpga<i>`` per stage and ``link<i>-<i+1>`` per
        boundary; the event's ``layer`` field carries the item index so
        ``gantt()`` shows fill, steady state, and drain.
        """
        if n_items < 1:
            raise ValueError("n_items must be >= 1")
        events: List[TimelineEvent] = []
        dev_free = [0] * self.num_stages
        link_free = [0] * max(0, self.num_stages - 1)
        for item in range(n_items):
            ready = 0
            for s, stage in enumerate(self.stages):
                start = max(ready, dev_free[s])
                end = start + stage.cycles
                events.append(TimelineEvent(
                    name=f"item{item}.stage{s}", resource=f"fpga{s}",
                    start=start, end=end, layer=item))
                dev_free[s] = end
                ready = end
                if s < self.num_stages - 1 and self.link_cycles:
                    lstart = max(ready, link_free[s])
                    lend = lstart + self.link_cycles
                    events.append(TimelineEvent(
                        name=f"item{item}.xfer{s}",
                        resource=f"link{s}-{s + 1}",
                        start=lstart, end=lend, layer=item))
                    link_free[s] = lend
                    ready = lend
        return Timeline(events=events)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-friendly flattening (CLI ``--json`` output)."""
        return {
            "model": self.config.name,
            "clock_mhz": self.clock_mhz,
            "devices": self.n_devices,
            "pipeline_stages": self.num_stages,
            "stages": [
                {
                    "stage": s.index,
                    "layers": [s.layer_start, s.layer_end],
                    "num_layers": s.num_layers,
                    "tp_ways": s.tp_ways,
                    "cycles": s.cycles,
                    "tp_comm_cycles_per_layer": s.tp_comm_cycles,
                    "bubble_cycles": self.bubble_cycles[s.index],
                }
                for s in self.stages
            ],
            "interconnect": {
                "link": self.link.name,
                "boundary_bytes": self.boundary_bytes,
                "cycles_per_boundary": self.link_cycles,
                "total_cycles": self.interconnect_cycles,
            },
            "fill": {"cycles": self.fill_cycles, "ms": self.fill_ms},
            "latency_ms": self.latency_ms,
            "steady_state": {
                "period_cycles": self.bottleneck_cycles,
                "inf_per_s": self.steady_state_inf_per_s,
                "bubble_fraction": self.bubble_fraction,
            },
        }


class PipelinePartitioner:
    """Partition workloads across K instances of one synthesized design.

    The lower-level cost models arrive as parameters — the accelerator's
    :class:`~repro.core.latency.LatencyModel` prices stage compute, the
    :class:`~repro.parallel.interconnect.InterconnectLink` prices stage
    boundaries — and this class composes them into
    :class:`PipelinePlan` objects.
    """

    def __init__(self, accel: ProTEA,
                 link: InterconnectLink = AURORA_64B66B):
        self.accel = accel
        self.link = link

    # ------------------------------------------------------------------
    def plan(
        self,
        config: TransformerConfig,
        n_devices: int,
        tp_ways: int = 1,
    ) -> PipelinePlan:
        """Partition ``config`` across ``n_devices`` with ``tp_ways``
        tensor-parallel devices per pipeline stage.

        Raises ``ValueError`` for infeasible shapes and
        :class:`~repro.isa.controller.ResynthesisRequiredError` when a
        stage's sub-workload exceeds the synthesized maxima.
        """
        if n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if tp_ways < 1 or n_devices % tp_ways:
            raise ValueError(
                f"n_devices={n_devices} not divisible by tp_ways={tp_ways}")
        validate_tensor_parallel(config, tp_ways)
        n_stages = n_devices // tp_ways
        if n_stages > config.num_layers:
            raise ValueError(
                f"{config.name}: cannot pipeline {config.num_layers} "
                f"layer(s) across {n_stages} stages — lower the depth or "
                f"raise tp_ways")

        model = self.accel.latency_model
        clock = self.accel.clock_mhz
        layer = model.layer_cycles(config.seq_len, config.d_model,
                                   config.num_heads, tp=tp_ways)
        comm = tp_allreduce_cycles(model, config, tp_ways, self.link, clock)
        per_layer = layer.total + comm
        ranges = balanced_partition([per_layer] * config.num_layers,
                                    n_stages)
        stages = tuple(
            StagePlan(index=i, layer_start=a, layer_end=b,
                      tp_ways=tp_ways, layer=layer, tp_comm_cycles=comm)
            for i, (a, b) in enumerate(ranges)
        )
        for stage in stages:
            stage.validate(self.accel.synth, config)
        boundary = activation_bytes(model, config.seq_len, config.d_model)
        link_cycles = (self.link.transfer_cycles(boundary, clock)
                       if n_stages > 1 else 0)
        return PipelinePlan(
            config=config,
            clock_mhz=clock,
            link=self.link,
            stages=stages,
            boundary_bytes=boundary,
            link_cycles=link_cycles,
        )

    # ------------------------------------------------------------------
    def decode_report(
        self,
        config: TransformerConfig,
        n_devices: int,
        prompt_len: int,
        output_len: int,
    ) -> DecodePipelineReport:
        """Pipeline-parallel decode mode for ``config``.

        Stages reuse the standard balanced layer split (per-layer decode
        cost is layer-uniform, so the full-sequence balance is also the
        decode balance); each stage then prices one token at the *final*
        cache length — the conservative steady-state bound.  Tensor
        parallelism is a prefill-side lever (it needs whole rows to
        split); decode mode always runs pure pipeline (``tp_ways=1``).
        """
        if prompt_len < 1 or output_len < 1:
            raise ValueError("prompt_len and output_len must be >= 1")
        total = prompt_len + output_len
        if total > self.accel.synth.max_seq_len:
            raise ResynthesisRequiredError(
                f"generation needs a {total}-position KV cache; the "
                f"synthesized buffers stop at max_seq_len="
                f"{self.accel.synth.max_seq_len}")
        plan = self.plan(config.with_(seq_len=prompt_len), n_devices,
                         tp_ways=1)
        model = self.accel.latency_model
        cache_len = max(total - 1, prompt_len + 1)
        per_layer = model.decode_layer_cycles(
            cache_len, config.d_model, config.num_heads).total
        stage_cycles = tuple(s.num_layers * per_layer for s in plan.stages)
        row_bytes = activation_bytes(model, 1, config.d_model)
        link_cycles = (self.link.transfer_cycles(row_bytes,
                                                 self.accel.clock_mhz)
                       if plan.num_stages > 1 else 0)
        return DecodePipelineReport(
            config=config,
            clock_mhz=self.accel.clock_mhz,
            link=self.link,
            prompt_len=prompt_len,
            cache_len=cache_len,
            stage_cycles=stage_cycles,
            link_cycles=link_cycles,
            prefill_fill_cycles=plan.fill_cycles,
        )

    # ------------------------------------------------------------------
    def feasible_shapes(
        self, config: TransformerConfig, n_devices: int
    ) -> List[Tuple[int, int]]:
        """All ``(n_stages, tp_ways)`` factorizations of ``n_devices``
        that are structurally feasible for ``config``."""
        shapes = []
        for tp in range(1, n_devices + 1):
            if n_devices % tp or config.num_heads % tp:
                continue
            n_stages = n_devices // tp
            if n_stages <= config.num_layers:
                shapes.append((n_stages, tp))
        return shapes

    def best_plan(
        self,
        config: TransformerConfig,
        n_devices: int,
        objective: str = "throughput",
    ) -> PipelinePlan:
        """Best feasible pipeline-depth x tensor-width factorization.

        ``objective="throughput"`` minimizes the steady-state period
        (deep pipelines win: each stage holds fewer layers);
        ``objective="latency"`` minimizes the fill — a single request's
        end-to-end time — which favors tensor splits, since only they
        shrink the serialized weight-streaming on a request's critical
        path.  Ties break toward the other metric, then the shallower
        pipeline.
        """
        if objective not in ("throughput", "latency"):
            raise ValueError(
                f"unknown objective {objective!r}; "
                "available: ['latency', 'throughput']")
        shapes = self.feasible_shapes(config, n_devices)
        plans = []
        for _, tp in shapes:
            try:
                plans.append(self.plan(config, n_devices, tp))
            except ResynthesisRequiredError:
                # A stage's layer slice exceeds the synthesized maxima at
                # this depth — the shape is infeasible, not the workload.
                continue
        if not plans:
            raise ValueError(
                f"{config.name}: no feasible (stages, tp) factorization of "
                f"{n_devices} devices — num_layers={config.num_layers}, "
                f"num_heads={config.num_heads}, synthesized max_layers="
                f"{self.accel.synth.max_layers}")
        if objective == "throughput":
            key = lambda p: (p.bottleneck_cycles, p.fill_cycles,  # noqa: E731
                             p.num_stages)
        else:
            key = lambda p: (p.fill_cycles, p.bottleneck_cycles,  # noqa: E731
                             p.num_stages)
        return min(plans, key=key)

    # ------------------------------------------------------------------
    def scaling_curve(
        self,
        config: TransformerConfig,
        device_counts: Tuple[int, ...] = (1, 2, 4, 8),
    ) -> Dict[int, PipelinePlan]:
        """Best plan per device count (skipping infeasible counts)."""
        curve: Dict[int, PipelinePlan] = {}
        for k in device_counts:
            try:
                curve[k] = self.best_plan(config, k)
            except ValueError:
                continue
        return curve
