"""Discrete-event simulation of a multi-instance serving cluster.

The cluster is N synthesized-identical ProTEA instances behind a
dispatcher.  Time advances through a binary heap of events:

* ``arrival``  — a request enters; the scheduler picks an instance and
  the request joins that instance's FIFO.
* ``free``     — an instance finished a batch; it immediately tries to
  form the next one.
* ``check``    — a dynamic-batching deadline fired; the instance
  re-evaluates whether to dispatch a partial batch.

Dispatching a batch charges the reprogramming penalty (the instance's
``reprogram_ms``, from its :class:`~repro.sim.fleet.InstanceSpec` or
the cluster default) whenever the batch's model differs from the
workload resident on that instance, then the batched service time from
:class:`.batching.ServiceTimeModel`.
Heap ties break on (event priority, insertion sequence), so a run is a
pure function of (workload, topology, policies) — the acceptance
property behind identical replays.

:meth:`ClusterSimulator.run` executes on
:class:`repro.sim.serve.ServeEngine`, whose outputs on seeded scenarios
are pinned by the goldens under ``tests/goldens/`` (rendered reports,
record digests and event-stream digests).  The engine also carries the
scenario layer: heterogeneous fleets
(:class:`~repro.sim.fleet.FleetSpec`) and failure/recovery injection
(:class:`~repro.sim.failures.FailurePlan`).

``simulate(..., observer=...)`` attaches any read-only consumer of the
engine's event stream — a :class:`repro.obs.TraceRecorder`,
:class:`repro.obs.MetricsSampler`, streaming SLO
:class:`repro.obs.Watchdog` (burn-rate alerting over per-request
latency, derived online from the same events), or ``events.append``;
compose several with :func:`repro.obs.compose`.  The result keeps no
copy of the stream; attached or not, its records are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from .._checks import check_non_negative
from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..sim.failures import FailurePlan
from ..sim.fleet import FleetSpec, _FleetSimulator
from ..sim.shard import merge_serve_summaries
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
    """Everything a run produced: records, samples, per-instance stats."""

    records: List[RequestRecord]
    instances: List[InstanceStats]
    n_instances: int
    makespan_ms: float
    #: ``(t_ms, total queued requests)`` after every queue mutation.
    queue_samples: List[Tuple[float, int]]
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
    """Event-driven simulator over N instances of one synthesized design.

    ``scheduler`` is a policy name or a
    :class:`~repro.serving.scheduler.Scheduler` object.  A name builds a
    fresh scheduler for every :meth:`run`, so replays agree; an object
    is used as passed, and its state (round-robin's cursor) carries
    over from one run to the next.
    """

    _merge = staticmethod(merge_serve_summaries)

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
        check_non_negative("check_jitter_ms", check_jitter_ms)
        self.batching = batching or no_batching()
        self.service = ServiceTimeModel(accel, models or MODEL_ZOO)
        #: Fires batching-deadline checks this much *early*.  A check is
        #: a pure wakeup — ``try_dispatch`` re-derives everything from
        #: queue state, and an early check that finds the head under-age
        #: re-arms at the true deadline — so any jitter value must
        #: produce identical dispatch events.  Exposed precisely so
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

    A ``scheduler`` object keeps its state across calls (see
    :class:`ClusterSimulator`); a name starts fresh each call.

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
