"""Discrete-event simulation of a multi-instance serving cluster.

The cluster is N synthesized-identical ProTEA instances behind a
dispatcher.  Time advances through a binary heap of events:

* ``arrival``  — a request enters; the scheduler picks an instance and
  the request joins that instance's FIFO.
* ``free``     — an instance finished a batch; it immediately tries to
  form the next one.
* ``check``    — a dynamic-batching deadline fired; the instance
  re-evaluates whether to dispatch a partial batch.

Dispatching a batch charges the reprogramming penalty (via each
instance's :class:`~repro.core.runtime.RuntimeSession`) whenever the
batch's model differs from the workload resident on that instance, then
the batched service time from :class:`.batching.ServiceTimeModel`.
Heap ties break on (event priority, insertion sequence), so a run is a
pure function of (workload, topology, policies) — the acceptance
property behind trace-identical replays.

Since the unified kernel landed, :meth:`ClusterSimulator.run` executes
on :class:`repro.sim.serve.ServeEngine` — bit-identical to the legacy
closure loop on seeded scenarios (pinned by the goldens under
``tests/goldens/``) and measurably faster, plus the scenario layer the
old loop could not express: heterogeneous fleets
(:class:`~repro.sim.fleet.FleetSpec`) and failure/recovery injection
(:class:`~repro.sim.failures.FailurePlan`).  The legacy loop survives
as :meth:`ClusterSimulator.run_legacy`, the reference implementation
the goldens and the kernel-speedup benchmark compare against.

``simulate(..., observer=...)`` attaches any read-only consumer of the
engine's event stream — a :class:`repro.obs.TraceRecorder`,
:class:`repro.obs.MetricsSampler`, or streaming SLO
:class:`repro.obs.Watchdog` (burn-rate alerting over per-request
latency, derived online from the same events); compose several with
:func:`repro.obs.compose`.  Attached or not, the run's trace and
records are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..sim.failures import FailurePlan
from ..sim.fleet import FleetSpec, _FleetSimulator
from ..sim.summary import _FleetTotals
from .batching import BatchingPolicy, ServiceTimeModel, no_batching
from .scheduler import Scheduler
from .workload import Request

__all__ = ["RequestRecord", "InstanceStats", "SimulationResult",
           "ClusterSimulator", "simulate"]

class RequestRecord(NamedTuple):
    """Per-request outcome of one simulation.

    A named tuple, not a dataclass: a full-detail run materializes one
    record per request, and the engine builds them with
    ``tuple.__new__`` straight from its completed-batch rows — roughly
    a quarter of a frozen dataclass's construction cost.  Records stay
    immutable and hashable; :func:`~repro.serving.slo.summarize` reads
    their fields, never the derived properties below.
    """

    rid: int
    model: str
    instance: int
    batch_size: int
    t_arrival_ms: float
    t_dispatch_ms: float
    t_complete_ms: float
    #: Dispatches lost to instance failures before this one completed.
    retries: int = 0
    #: Arrived while at least one instance was down (failure runs).
    degraded: bool = False

    @property
    def wait_ms(self) -> float:
        return self.t_dispatch_ms - self.t_arrival_ms

    @property
    def service_ms(self) -> float:
        return self.t_complete_ms - self.t_dispatch_ms

    @property
    def latency_ms(self) -> float:
        return self.t_complete_ms - self.t_arrival_ms


@dataclass(frozen=True)
class InstanceStats:
    """End-of-run accounting for one instance."""

    index: int
    requests: int
    batches: int
    busy_ms: float
    reprogram_count: int
    switch_count: int
    reprogram_time_ms: float
    #: Faults injected into this instance (failure runs only).
    failures: int = 0
    #: Total time this instance spent down (failure runs only).
    downtime_ms: float = 0.0


@dataclass
class SimulationResult(_FleetTotals):
    """Everything a run produced: records, trace, per-instance stats."""

    records: List[RequestRecord]
    instances: List[InstanceStats]
    n_instances: int
    makespan_ms: float
    #: ``(t_ms, total queued requests)`` after every queue mutation.
    queue_samples: List[Tuple[float, int]]
    #: Flat event log: ("arrive"|"dispatch"|"free", t_ms, ...) tuples
    #: (failure runs add "fail"/"recover").
    trace: List[tuple]
    scheduler: str = ""
    batching: str = ""
    #: Fleet-time fraction up (None unless failures were injected).
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0

    @property
    def total_requests(self) -> int:
        return len(self.records)


class ClusterSimulator(_FleetSimulator):
    """Event-driven simulator over N instances of one synthesized design."""

    _mode = "serve"

    def __init__(
        self,
        accel: ProTEA,
        n_instances: Optional[int] = None,
        scheduler: Union[str, Scheduler] = "least-loaded",
        batching: Optional[BatchingPolicy] = None,
        models: Optional[Mapping[str, TransformerConfig]] = None,
        reprogram_latency_ms: float = 0.0,
        check_jitter_ms: float = 0.0,
        fleet: Optional[FleetSpec] = None,
        failures: Optional[FailurePlan] = None,
    ):
        super().__init__(accel, n_instances, scheduler, reprogram_latency_ms,
                         fleet, failures)
        if check_jitter_ms < 0:
            raise ValueError("check_jitter_ms must be >= 0")
        self.batching = batching or no_batching()
        self.service = ServiceTimeModel(accel, models or MODEL_ZOO)
        #: Fires batching-deadline checks this much *early*.  A check is
        #: a pure wakeup — ``try_dispatch`` re-derives everything from
        #: queue state, and an early check that finds the head under-age
        #: re-arms at the true deadline — so any jitter value must
        #: produce an identical dispatch trace.  Exposed precisely so
        #: tests can prove that (the stale-check no-op property).
        self.check_jitter_ms = check_jitter_ms

    def _engine(self, fleet: FleetSpec, **cell):
        from ..sim.serve import ServeEngine

        return ServeEngine(
            self.accel,
            fleet=fleet,
            scheduler=self._scheduler(),
            batching=self.batching,
            models=self.service.models,
            reprogram_latency_ms=self.reprogram_latency_ms,
            check_jitter_ms=self.check_jitter_ms,
            failures=self.failures,
            **cell,
        )

    # ------------------------------------------------------------------
    def run_legacy(self, requests: Sequence[Request]) -> SimulationResult:
        """The pre-kernel closure loop, kept as the reference engine.

        The goldens and the kernel benchmarks run both engines over the
        same seeded scenarios; this one cannot express fleets or
        failures and refuses to silently ignore them.  The loop itself
        lives in :mod:`repro.serving.legacy` (test support, shared with
        the generation oracle) — only this delegate ships in the hot
        module.
        """
        from .legacy import run_legacy_cluster

        return run_legacy_cluster(self, requests)


def simulate(
    accel: ProTEA,
    requests: Sequence[Request],
    n_instances: Optional[int] = None,
    scheduler: Union[str, Scheduler] = "least-loaded",
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    fleet: Optional[FleetSpec] = None,
    failures: Optional[FailurePlan] = None,
    observer=None,
    profiler=None,
    detail: str = "full",
    shards: int = 1,
    shard_jobs: Optional[int] = None,
):
    """One-call convenience wrapper around :class:`ClusterSimulator`.

    The cyclic garbage collector is paused for the engine run (the
    engines build no reference cycles).  Cycles built by a user
    observer, scheduler or batching policy are kept until the call
    returns.  A thread that re-enables the collector mid-run costs
    speed only.
    """
    sim = ClusterSimulator(
        accel, n_instances, scheduler=scheduler, batching=batching,
        models=models, reprogram_latency_ms=reprogram_latency_ms,
        fleet=fleet, failures=failures)
    return sim.run(requests, observer=observer, profiler=profiler,
                   detail=detail, shards=shards, shard_jobs=shard_jobs)
