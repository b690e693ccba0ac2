"""Token-level continuous batching for autoregressive generation.

The request-level simulator (:mod:`.cluster`) holds a batch until every
member finishes — right for fixed-length encoder invocations, wasteful
for generation where members finish at different tokens.  This module
is the generation service mode: an instance holds up to ``slots``
in-flight sequences and advances them one *engine step* at a time,

* new requests join at step boundaries — their prompt **prefill** runs
  as part of the step and emits their first token (TTFT);
* every already-active sequence decodes one token per step — the
  layer's weight tiles stream **once per step**, amortized over all
  in-flight sequences (the continuous-batching win), while each
  sequence pays its own cache-length-dependent attention sweep;
* finished sequences vacate their slot at the step boundary, so
  admission capacity follows completion token-by-token, not
  batch-by-batch.

Costing comes from the same synthesized-accelerator model as
everything else: prefill is
:meth:`~repro.core.latency.LatencyModel.evaluate` at the prompt length,
decode steps decompose
:meth:`~repro.core.latency.LatencyModel.decode_layer_cycles` into the
shared weight-stream term plus per-sequence compute.

``simulate_generation(..., observer=...)`` attaches any read-only
consumer of the engine's event stream (see
:mod:`repro.sim.generate` for the event vocabulary) — a trace
recorder, metrics sampler, or a streaming TTFT
:class:`repro.obs.Watchdog`; attached or not, the run is
byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..sim.failures import FailurePlan
from ..sim.fleet import FleetSpec, _FleetSimulator
from ..sim.summary import _FleetTotals
from .scheduler import Scheduler
from .workload import GenerationRequest

__all__ = [
    "GenerationRecord",
    "GenerationInstanceStats",
    "GenerationSimulationResult",
    "GenerationServiceModel",
    "GenerationClusterSimulator",
    "simulate_generation",
]



class GenerationRecord(NamedTuple):
    """Per-request outcome of one generation simulation.

    A named tuple for the same reason as
    :class:`~repro.serving.cluster.RequestRecord`: one per request in a
    full-detail run, built with ``tuple.__new__`` by the engine.
    """

    rid: int
    model: str
    instance: int
    prompt_tokens: int
    output_tokens: int
    t_arrival_ms: float
    t_admit_ms: float
    t_first_token_ms: float
    t_complete_ms: float
    #: Steps lost to instance failures (mid-prefill or mid-decode).
    retries: int = 0
    #: Times this request was evicted for higher-priority work.
    preemptions: int = 0
    #: Arrived while at least one instance was down (failure runs).
    degraded: bool = False

    @property
    def wait_ms(self) -> float:
        """Queueing delay before the prompt entered an engine step."""
        return self.t_admit_ms - self.t_arrival_ms

    @property
    def ttft_ms(self) -> float:
        """Time to first token (arrival → end of prefill)."""
        return self.t_first_token_ms - self.t_arrival_ms

    @property
    def tpot_ms(self) -> float:
        """Mean time per output token after the first (0 if only one)."""
        if self.output_tokens <= 1:
            return 0.0
        return ((self.t_complete_ms - self.t_first_token_ms)
                / (self.output_tokens - 1))

    @property
    def latency_ms(self) -> float:
        return self.t_complete_ms - self.t_arrival_ms


@dataclass(frozen=True)
class GenerationInstanceStats:
    """End-of-run accounting for one instance."""

    index: int
    requests: int
    steps: int
    prefills: int
    tokens: int
    busy_ms: float
    switch_count: int
    reprogram_time_ms: float
    #: Sequences this instance evicted for higher-priority work.
    preemptions: int = 0
    #: Faults injected into this instance (failure runs only).
    failures: int = 0
    #: Total time this instance spent down (failure runs only).
    downtime_ms: float = 0.0


@dataclass
class GenerationSimulationResult(_FleetTotals):
    """Everything a generation run produced."""

    records: List[GenerationRecord]
    instances: List[GenerationInstanceStats]
    n_instances: int
    slots: int
    makespan_ms: float
    #: ``(t_ms, waiting + in-flight sequences)`` after every mutation.
    queue_samples: List[Tuple[float, int]]
    #: Flat event log: ("arrive"|"admit"|"step"|"finish", t_ms, ...)
    #: (priority runs add "preempt"/"resume", failure runs
    #: "fail"/"recover").
    trace: List[tuple]
    scheduler: str = ""
    #: Fleet-time fraction up (None unless failures were injected).
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    total_preemptions: int = 0

    @property
    def total_requests(self) -> int:
        return len(self.records)

    @property
    def total_tokens(self) -> int:
        return sum(r.output_tokens for r in self.records)


class GenerationServiceModel:
    """Maps (model, lengths) → milliseconds of prefill / decode steps.

    Decode-step decomposition per layer: the weight-stream term (loads)
    is paid once per step, each in-flight sequence adds its own
    cache-length-dependent compute term.  Both halves are memoized —
    the cycle model is deterministic, so the cache is exact.
    """

    def __init__(self, accel: ProTEA,
                 models: Optional[Mapping[str, TransformerConfig]] = None):
        self.accel = accel
        self.models = dict(models or MODEL_ZOO)
        self._prefill: Dict[Tuple[str, int], float] = {}
        self._load_ms: Dict[str, float] = {}
        self._compute_ms: Dict[Tuple[str, int], float] = {}

    def config(self, model: str) -> TransformerConfig:
        try:
            return self.models[model]
        except KeyError:
            raise KeyError(
                f"unknown model {model!r}; available: {sorted(self.models)}"
            ) from None

    def validate(self, request: GenerationRequest) -> None:
        """A request must fit the synthesized KV-cache capacity."""
        self.config(request.model)  # raises on unknown models
        max_sl = self.accel.synth.max_seq_len
        if request.prompt_tokens > max_sl:
            raise ValueError(
                f"request {request.rid}: prompt of {request.prompt_tokens} "
                f"tokens exceeds the synthesized max_seq_len={max_sl}")
        if request.total_tokens > max_sl:
            raise ValueError(
                f"request {request.rid}: {request.prompt_tokens} prompt + "
                f"{request.output_tokens} output tokens need a "
                f"{request.total_tokens}-position KV cache; the synthesized "
                f"buffers stop at max_seq_len={max_sl}")

    def prefill_ms(self, model: str, prompt_tokens: int) -> float:
        """Full-sequence pass at the prompt length (emits token #1)."""
        key = (model, prompt_tokens)
        if key not in self._prefill:
            cfg = self.config(model).with_(seq_len=prompt_tokens)
            self._prefill[key] = self.accel.latency_report(cfg).latency_ms
        return self._prefill[key]

    def _ms(self, cycles: int) -> float:
        return cycles / (self.accel.clock_mhz * 1e3)

    def _layer_load_ms(self, model: str) -> float:
        if model not in self._load_ms:
            cfg = self.config(model)
            layer = self.accel.latency_model.decode_layer_cycles(
                1, cfg.d_model, cfg.num_heads)
            self._load_ms[model] = self._ms(layer.load_total)
        return self._load_ms[model]

    def _layer_compute_ms(self, model: str, cache_len: int) -> float:
        key = (model, cache_len)
        if key not in self._compute_ms:
            cfg = self.config(model)
            layer = self.accel.latency_model.decode_layer_cycles(
                cache_len, cfg.d_model, cfg.num_heads)
            self._compute_ms[key] = self._ms(layer.compute_total)
        return self._compute_ms[key]

    def decode_step_ms(self, model: str, cache_lens: Sequence[int]) -> float:
        """One engine step decoding one token for every sequence.

        ``cache_lens`` are the key counts each sequence attends over
        this step (its cached positions plus the new token).
        """
        if not cache_lens:
            return 0.0
        cfg = self.config(model)
        per_layer = (self._layer_load_ms(model)
                     + sum(self._layer_compute_ms(model, cl)
                           for cl in cache_lens))
        return per_layer * cfg.num_layers


class GenerationClusterSimulator(_FleetSimulator):
    """Event-driven continuous-batching simulator over N instances.

    The generation counterpart of :class:`~repro.serving.cluster.
    ClusterSimulator`: same dispatch schedulers, same reprogramming
    accounting, but instances advance in-flight sequence sets one
    token-level step at a time instead of serving opaque batches.
    In-flight sequences of one instance always share a model (mixed
    weights cannot be resident simultaneously), so a queued request of
    a different model waits until the active set drains.
    """

    _mode = "generate"

    def __init__(
        self,
        accel: ProTEA,
        n_instances: Optional[int] = None,
        slots: int = 8,
        scheduler: Union[str, Scheduler] = "least-loaded",
        models: Optional[Mapping[str, TransformerConfig]] = None,
        reprogram_latency_ms: float = 0.0,
        fleet: Optional[FleetSpec] = None,
        failures: Optional[FailurePlan] = None,
        preemption: Optional[bool] = None,
    ):
        super().__init__(accel, n_instances, scheduler, reprogram_latency_ms,
                         fleet, failures)
        # NaN compares false against every slot count, so a NaN fleet
        # admits nothing; a float or bool count is a slip, not a size.
        if not isinstance(slots, int) or isinstance(slots, bool) or slots < 1:
            raise ValueError(
                f"need at least one sequence slot: slots must be an int "
                f">= 1, got {slots!r}")
        #: None = auto: preempt iff any request carries a priority.
        self.preemption = preemption
        self.slots = slots
        self.service = GenerationServiceModel(accel, models)

    def _validate(self, requests: Sequence[GenerationRequest]) -> None:
        for req in requests:
            if not isinstance(req, GenerationRequest):
                raise TypeError(
                    "generation mode needs GenerationRequest workloads — "
                    "see repro.serving.attach_generation_lengths")
            self.service.validate(req)

    def _engine(self, fleet: FleetSpec, **cell):
        from ..sim.generate import GenerationEngine

        return GenerationEngine(
            self.service,
            fleet=fleet,
            slots=self.slots,
            scheduler=self._scheduler(),
            reprogram_latency_ms=self.reprogram_latency_ms,
            failures=self.failures,
            preemption=self.preemption,
            **cell,
        )

    # ------------------------------------------------------------------
    def run_legacy(self, requests: Sequence[GenerationRequest]
                   ) -> GenerationSimulationResult:
        """The pre-kernel closure loop, kept as the reference engine.

        The loop itself lives in :mod:`repro.serving.legacy` (test
        support, shared with the serve oracle) — only this delegate
        ships in the hot module.
        """
        from .legacy import run_legacy_generation

        return run_legacy_generation(self, requests)


def simulate_generation(
    accel: ProTEA,
    requests: Sequence[GenerationRequest],
    n_instances: Optional[int] = None,
    slots: int = 8,
    scheduler: Union[str, Scheduler] = "least-loaded",
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    fleet: Optional[FleetSpec] = None,
    failures: Optional[FailurePlan] = None,
    preemption: Optional[bool] = None,
    observer=None,
    profiler=None,
    detail: str = "full",
    shards: int = 1,
    shard_jobs: Optional[int] = None,
):
    """One-call wrapper around :class:`GenerationClusterSimulator`.

    The cyclic garbage collector is paused for the engine run (the
    engines build no reference cycles).  Cycles built by a user
    observer or scheduler are kept until the call returns.  A thread
    that re-enables the collector mid-run costs speed only.
    """
    sim = GenerationClusterSimulator(
        accel, n_instances, slots=slots, scheduler=scheduler, models=models,
        reprogram_latency_ms=reprogram_latency_ms, fleet=fleet,
        failures=failures, preemption=preemption)
    return sim.run(requests, observer=observer, profiler=profiler,
                   detail=detail, shards=shards, shard_jobs=shard_jobs)
