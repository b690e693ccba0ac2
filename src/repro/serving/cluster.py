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

import math
from dataclasses import dataclass
from typing import (List, Mapping, NamedTuple, Optional, Sequence, Tuple,
                    Union)

from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..sim.failures import FailurePlan
from ..sim.fleet import FleetSpec
from .batching import BatchingPolicy, ServiceTimeModel, no_batching
from .scheduler import Scheduler, get_scheduler
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
class SimulationResult:
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

    @property
    def total_reprogram_time_ms(self) -> float:
        return sum(i.reprogram_time_ms for i in self.instances)

    @property
    def total_switches(self) -> int:
        return sum(i.switch_count for i in self.instances)


class ClusterSimulator:
    """Event-driven simulator over N instances of one synthesized design."""

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
        if fleet is None:
            if n_instances is None:
                raise ValueError("need n_instances or a FleetSpec")
            if n_instances < 1:
                raise ValueError("need at least one instance")
            fleet = FleetSpec.uniform(n_instances)
        elif n_instances is not None and n_instances != fleet.n:
            raise ValueError(
                f"n_instances={n_instances} contradicts the {fleet.n}-"
                "instance FleetSpec (pass one or the other)")
        if not (math.isfinite(reprogram_latency_ms)
                and reprogram_latency_ms >= 0):
            raise ValueError(
                "reprogram_latency_ms must be >= 0 and finite, got "
                f"{reprogram_latency_ms!r}")
        if check_jitter_ms < 0:
            raise ValueError("check_jitter_ms must be >= 0")
        self.accel = accel
        self.fleet = fleet
        self.failures = failures
        self.n_instances = fleet.n
        # Keep the spec, not an instance: stateful schedulers (round-
        # robin's cursor) must start fresh every run() or replays of
        # the same workload would diverge.
        self._scheduler_spec = scheduler
        if isinstance(scheduler, str):
            get_scheduler(scheduler)  # validate the name eagerly
        self.batching = batching or no_batching()
        self.service = ServiceTimeModel(accel, models or MODEL_ZOO)
        self.reprogram_latency_ms = reprogram_latency_ms
        #: Fires batching-deadline checks this much *early*.  A check is
        #: a pure wakeup — ``try_dispatch`` re-derives everything from
        #: queue state, and an early check that finds the head under-age
        #: re-arms at the true deadline — so any jitter value must
        #: produce an identical dispatch trace.  Exposed precisely so
        #: tests can prove that (the stale-check no-op property).
        self.check_jitter_ms = check_jitter_ms

    def _scheduler(self) -> Scheduler:
        """A fresh scheduler per run (stateful cursors must reset)."""
        spec = self._scheduler_spec
        return get_scheduler(spec) if isinstance(spec, str) else spec

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request], observer=None,
            profiler=None, detail: str = "full", shards: int = 1,
            shard_jobs: Optional[int] = None):
        """Simulate the full stream on the unified kernel.

        Bit-identical to the legacy closure loop on homogeneous,
        no-failure scenarios (the trace-identity goldens hold the two
        engines to byte-equal rendered reports) and the only path that
        understands heterogeneous fleets and failure injection.

        ``observer``/``profiler`` are forwarded to the engine's
        observability hooks (see :mod:`repro.obs`); observers are
        read-only, so the result is byte-identical with or without
        them.

        ``detail="summary"`` returns a
        :class:`~repro.sim.summary.ServeSummary` instead of a
        :class:`SimulationResult` — no per-request records, traces, or
        depth samples, just the accumulators
        :func:`~repro.serving.slo.summarize` needs (percentiles exact,
        means equal up to float summation order).  The web-scale path.

        ``shards > 1`` partitions the fleet into independent cells (see
        :mod:`repro.sim.shard`) and merges their summaries; it implies
        ``detail="summary"`` and, with ``shard_jobs >= 2``, runs cells
        in worker processes.  ``shards=1`` is always the ordinary
        single-loop run — byte-identical to not passing ``shards`` at
        all.
        """
        if shards != 1:
            from ..sim.shard import run_sharded

            if detail != "summary":
                raise ValueError(
                    "sharded runs are summary-detail only: per-request "
                    "records across cells would defeat the fast path — "
                    "pass detail='summary' (or shards=1)")
            if profiler is not None:
                raise ValueError(
                    "KernelProfiler cannot span shard cells — profile "
                    "a shards=1 run")
            return run_sharded(self, requests, mode="serve",
                               shards=shards, jobs=shard_jobs,
                               observer=observer)
        from ..sim.serve import ServeEngine

        engine = ServeEngine(
            self.accel,
            fleet=self.fleet,
            scheduler=self._scheduler(),
            batching=self.batching,
            models=self.service.models,
            reprogram_latency_ms=self.reprogram_latency_ms,
            check_jitter_ms=self.check_jitter_ms,
            failures=self.failures,
        )
        if observer is not None:
            engine.attach_observer(observer)
        if profiler is not None:
            engine.attach_profiler(profiler)
        return engine.run(requests, detail=detail)

    # ------------------------------------------------------------------
    def _shard_cell(self, fleet: FleetSpec, instance_base: int,
                    requests: Sequence[Request],
                    failure_horizon_ms: float, rng_seed,
                    observer=None):
        """Run one shard cell (summary detail, global instance ids).

        Called by :func:`repro.sim.shard.run_sharded` — in-process on
        the serial path, inside a pool worker on the parallel one.
        """
        from ..sim.serve import ServeEngine

        engine = ServeEngine(
            self.accel,
            fleet=fleet,
            scheduler=self._scheduler(),
            batching=self.batching,
            models=self.service.models,
            reprogram_latency_ms=self.reprogram_latency_ms,
            check_jitter_ms=self.check_jitter_ms,
            failures=self.failures,
            instance_base=instance_base,
            failure_horizon_ms=failure_horizon_ms,
            rng_seed=rng_seed,
        )
        if observer is not None:
            engine.attach_observer(observer)
        return engine.run(requests, detail="summary")

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
    """One-call convenience wrapper around :class:`ClusterSimulator`."""
    sim = ClusterSimulator(
        accel, n_instances, scheduler=scheduler, batching=batching,
        models=models, reprogram_latency_ms=reprogram_latency_ms,
        fleet=fleet, failures=failures)
    return sim.run(requests, observer=observer, profiler=profiler,
                   detail=detail, shards=shards, shard_jobs=shard_jobs)
