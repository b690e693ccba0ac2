"""Heterogeneous fleet descriptions and capability-aware dispatch.

A :class:`FleetSpec` is an ordered list of :class:`InstanceSpec`, one
per instance.  The homogeneous case is every instance identical, full
speed, serving everything; heterogeneity adds, per instance:

* ``speed``       — a service-rate multiplier (0.5 = half-speed device:
  every batch/step takes twice as long);
* ``models``      — an optional capability set: the dispatcher only
  routes a request to instances that can serve its model;
* ``reprogram_latency_ms`` — a per-instance workload-switch penalty
  overriding the cluster-wide default (faster or slower flash);
* ``slots``       — per-instance in-flight sequence capacity
  (generation mode only);
* ``target``      — an optional accelerator-like object (e.g. a
  :class:`~repro.parallel.group.PipelineGroup`) this instance prices
  service times through, letting one fleet mix single-FPGA replicas
  with multi-FPGA pipeline groups.

CLI grammar (``--heterogeneous``): comma-separated entries of
``SPEED[/SLOTS][xCOUNT][@MODEL[+MODEL..]]`` — e.g.
``1.0x2,0.5/16@model2-lhc-trigger`` is two full-speed generalists plus
one half-speed, 16-slot instance pinned to one model.

The fleet substrate
-------------------
Both engines (:mod:`repro.sim.serve`, :mod:`repro.sim.generate`) run
on one fleet layer, kept here apart from their per-event service
logic.  It owns everything that does not depend on the workload class:

* ``_Inst`` — the state every instance keeps: identity, speed, switch
  penalty, queue, busy window, resident model, health and abort epoch,
  and the request, busy-time, switch, failure and downtime counters;
* ``_FleetEngine`` — the engine base: the ``detail`` → result-sink
  choice, the arrival sort, the :class:`~repro.sim.failures.
  FailureInjector` and the one ``fail``/``recover`` handler pair (mark
  down, displace, requeue, park, schedule repair, accrue downtime), the
  summary depth integral, and availability;
* ``_FleetSimulator`` — the serving façades' shared half:
  ``n_instances`` vs :class:`FleetSpec` resolution, a fresh scheduler
  per run, and one ``run`` over a single engine or shard cells.

A workload class supplies only its service discipline: how work starts
and finishes, what a fault displaces, and its stats and result types.
Its queue-depth counter counts the work the discipline has not yet
taken off the fleet — queued plus parked requests for serve; queued,
active and parked sequences for generation.  Shared code runs at setup,
in fault and repair events and at result time, never per arrival or
per completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .._checks import (check_count, check_non_negative, check_positive,
                       is_count)
from .._gcpause import gc_paused
from .failures import FailureInjector
from .kernel import Simulation

__all__ = ["InstanceSpec", "FleetSpec", "Dispatcher"]

_EPS = 1e-9
#: Stable-sort key for the merged arrival stream: equal-time arrivals
#: keep input order, which is exactly the heap's (priority, seq)
#: tie-break for a block of same-priority pushes.
_BY_T = attrgetter("t_ms")
_BY_RID = attrgetter("rid")
_T_COMPLETE = attrgetter("t_complete_ms")


@dataclass(frozen=True)
class InstanceSpec:
    """Static description of one instance in a (possibly mixed) fleet."""

    #: Service-rate multiplier; service times divide by this.
    speed: float = 1.0
    #: Capability set: model names this instance may serve (None = all).
    models: Optional[Tuple[str, ...]] = None
    #: Workload-switch penalty override (None = cluster default).
    reprogram_latency_ms: Optional[float] = None
    #: In-flight sequence capacity override (generation mode only).
    slots: Optional[int] = None
    #: Accelerator-like object pricing this instance's service times
    #: (None = the cluster's shared accelerator).
    target: Optional[object] = None

    def __post_init__(self) -> None:
        check_positive("instance speed", self.speed)
        if self.models is not None and not self.models:
            raise ValueError(
                "capability set must name at least one model "
                "(use None for an unrestricted instance)")
        if self.reprogram_latency_ms is not None:
            check_non_negative("reprogram_latency_ms",
                               self.reprogram_latency_ms)
        slots = self.slots
        if slots is not None and not is_count(slots):
            raise ValueError(f"slots must be >= 1 (an int), got {slots!r}")

    def can_serve(self, model: str) -> bool:
        return self.models is None or model in self.models


@dataclass(frozen=True)
class FleetSpec:
    """An ordered, immutable description of every instance."""

    specs: Tuple[InstanceSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("fleet must contain at least one instance")

    @property
    def n(self) -> int:
        return len(self.specs)

    @classmethod
    def uniform(cls, n: int, spec: Optional[InstanceSpec] = None
                ) -> "FleetSpec":
        if not is_count(n):
            raise ValueError(f"need at least one instance (an int), got {n!r}")
        return cls(tuple([spec or InstanceSpec()] * n))

    @classmethod
    def parse(cls, text: str) -> "FleetSpec":
        """Parse the ``--heterogeneous`` CLI grammar (see module doc)."""
        specs: List[InstanceSpec] = []
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            body, _, caps = entry.partition("@")
            models = tuple(m for m in caps.split("+") if m) if caps else None
            body, _, count_s = body.partition("x")
            speed_s, slots_sep, slots_s = body.partition("/")
            try:
                if slots_sep and not slots_s:
                    raise ValueError("empty slots")
                speed = float(speed_s)
                slots = int(slots_s) if slots_s else None
                count = int(count_s) if count_s else 1
            except ValueError:
                raise ValueError(
                    f"invalid fleet entry {entry!r} (expected "
                    "SPEED[/SLOTS][xCOUNT][@MODEL[+MODEL..]])") from None
            if count < 1:
                raise ValueError(f"fleet entry {entry!r}: count must be >= 1")
            spec = InstanceSpec(speed=speed, models=models, slots=slots)
            specs.extend([spec] * count)
        if not specs:
            raise ValueError(f"fleet spec {text!r} describes no instances")
        return cls(tuple(specs))

    def describe(self) -> str:
        """Compact one-line rendering (reports, error messages)."""
        parts = []
        for s in self.specs:
            bit = f"{s.speed:g}"
            if s.slots is not None:
                bit += f"/{s.slots}"
            if s.models is not None:
                bit += "@" + "+".join(s.models)
            parts.append(bit)
        return ",".join(parts)


class Dispatcher:
    """Routes an arriving request to an instance.

    Wraps a :class:`~repro.serving.scheduler.Scheduler` with the two
    concerns the scenario layer adds on top of plain policies:

    * **capability filtering** — only instances whose spec can serve
      the request's model are candidates (cached per model name);
    * **health filtering** — instances currently down are skipped;
      when *no* capable instance is up, :meth:`pick` returns ``None``
      and the engine parks the request in its pending buffer.

    Subclasses implement :meth:`_pick_fast` with an engine-specific
    inlined backlog computation for the built-in policies (the flags
    below say which one runs); anything else falls back to
    ``scheduler.pick`` (the :class:`~repro.serving.scheduler.Scheduler`
    Protocol, so custom schedulers keep working).
    """

    def __init__(self, scheduler, instances: Sequence) -> None:
        from ..serving.scheduler import LeastLoaded, ModelAffinity, RoundRobin

        self.scheduler = scheduler
        self.instances = list(instances)
        self.down_count = 0
        #: True when any instance carries a capability set.
        self.restricted = any(
            inst.spec.models is not None for inst in self.instances)
        self._eligible_cache = {}
        # Exact-type checks: a subclass may override semantics, so only
        # the stock policies take an inlined path.
        self._round_robin = type(scheduler) is RoundRobin
        self._least_loaded = type(scheduler) is LeastLoaded
        self._affinity = type(scheduler) is ModelAffinity
        self._slack = scheduler.slack if self._affinity else 0

    def eligible(self, model: str) -> List:
        """Instances whose capability set admits ``model`` (cached)."""
        if not self.restricted:
            return self.instances
        cached = self._eligible_cache.get(model)
        if cached is None:
            cached = [i for i in self.instances if i.spec.can_serve(model)]
            if not cached:
                raise ValueError(
                    f"no instance in the fleet can serve model {model!r}")
            self._eligible_cache[model] = cached
        return cached

    def pick(self, request, now_ms: float):
        """The chosen instance, or ``None`` if every candidate is down."""
        candidates = self.eligible(request.model)
        if self.down_count:
            candidates = [i for i in candidates if not i.down]
            if not candidates:
                return None
        return self._pick_fast(candidates, request, now_ms)

    def _pick_fast(self, candidates, request, now_ms: float):
        return self.scheduler.pick(candidates, request, now_ms)


class _FleetSimulator:
    """What both serving façades share: the fleet, the scheduler each
    run uses, and running a stream on one engine or on shard cells.

    A façade supplies ``_merge`` (the :mod:`repro.sim.shard` function
    that merges its cells' summaries) and ``_engine(fleet, **cell)``,
    the one place it builds its engine — over the whole fleet for
    :meth:`run`, over one cell (with the ``instance_base`` and
    ``failure_horizon_ms`` keywords) for :meth:`_shard_cell`.
    """

    def __init__(self, accel, n_instances: Optional[int], scheduler,
                 reprogram_latency_ms: float, fleet: Optional[FleetSpec],
                 failures) -> None:
        from ..serving.scheduler import get_scheduler

        if fleet is None:
            if n_instances is None:
                raise ValueError("need n_instances or a FleetSpec")
            fleet = FleetSpec.uniform(n_instances)
        elif n_instances is not None and n_instances != fleet.n:
            raise ValueError(
                f"n_instances={n_instances} contradicts the {fleet.n}-"
                "instance FleetSpec (pass one or the other)")
        check_non_negative("reprogram_latency_ms", reprogram_latency_ms)
        self.accel = accel
        self.fleet = fleet
        self.failures = failures
        self.n_instances = fleet.n
        # Keep a name as a name, so every run() builds a fresh instance
        # (round-robin's cursor starts over and replays agree).  A
        # Scheduler object is used as passed, state and all.
        self._scheduler_spec = scheduler
        if isinstance(scheduler, str):
            get_scheduler(scheduler)  # validate the name eagerly
        self.reprogram_latency_ms = reprogram_latency_ms

    def _scheduler(self):
        """The scheduler for one run: a fresh instance when the façade
        was given a name, else the caller's object as is — its state
        (round-robin's cursor) carries over from run to run."""
        from ..serving.scheduler import get_scheduler

        spec = self._scheduler_spec
        return get_scheduler(spec) if isinstance(spec, str) else spec

    def _validate(self, requests: Sequence) -> None:
        """Reject a workload the engine cannot run (before any shard
        split, so it is checked once, fleet-wide)."""

    def run(self, requests: Sequence, observer=None, profiler=None,
            detail: str = "full", shards: int = 1,
            shard_jobs: Optional[int] = None):
        """Simulate the full stream on the unified kernel.

        Seeded runs are pinned by the goldens under ``tests/goldens/``
        (rendered reports, record digests, event-stream digests).  The
        run understands heterogeneous fleets, failure injection and
        priority admission with preemption.  ``observer``/``profiler``
        are forwarded to the engine's observability hooks (see
        :mod:`repro.obs`); the observer is the only consumer of the
        event stream (pass ``events.append`` to collect it), and
        observers are read-only, so the result is byte-identical with
        or without them.

        ``detail="summary"`` returns a
        :class:`~repro.sim.summary.ServeSummary` /
        :class:`~repro.sim.summary.GenerationSummary` instead of the
        full result: no per-request records or depth samples,
        just the accumulators :func:`~repro.serving.slo.summarize` /
        :func:`~repro.serving.slo.summarize_generation` need.  The
        web-scale path.

        ``shards > 1`` partitions the fleet into independent cells (see
        :mod:`repro.sim.shard`) and merges their summaries; it implies
        ``detail="summary"`` and, with ``shard_jobs >= 2``, runs cells
        in worker processes.  ``shards=1`` is always the ordinary
        single-loop run — byte-identical to not passing ``shards`` at
        all.
        """
        check_count("shards", shards)
        if shard_jobs is not None:
            check_count("shard_jobs", shard_jobs)
        self._validate(requests)
        if shards != 1:
            from .shard import run_sharded

            if detail != "summary":
                raise ValueError(
                    "sharded runs are summary-detail only: per-request "
                    "records across cells would defeat the fast path — "
                    "pass detail='summary' (or shards=1)")
            if profiler is not None:
                raise ValueError(
                    "KernelProfiler cannot span shard cells — profile "
                    "a shards=1 run")
            return run_sharded(self, requests, shards=shards,
                               jobs=shard_jobs, observer=observer)
        return self._drive(self._engine(self.fleet), requests, detail,
                           observer, profiler)

    def _shard_cell(self, fleet: FleetSpec, instance_base: int,
                    requests: Sequence, failure_horizon_ms: float,
                    observer=None):
        """Run one shard cell (summary detail, global instance ids).

        Called by :func:`repro.sim.shard.run_sharded` — in-process on
        the serial path, inside a pool worker on the parallel one.
        """
        engine = self._engine(fleet, instance_base=instance_base,
                              failure_horizon_ms=failure_horizon_ms)
        return self._drive(engine, requests, "summary", observer, None)

    @staticmethod
    def _drive(engine, requests: Sequence, detail: str, observer,
               profiler):
        if observer is not None:
            engine.attach_observer(observer)
        if profiler is not None:
            engine.attach_profiler(profiler)
        with gc_paused():
            return engine.run(requests, detail=detail)


# ----------------------------------------------------------------------
# The fleet substrate both engines run on
# ----------------------------------------------------------------------

class _Inst:
    """Per-instance state every workload class keeps (scheduler-visible).

    Engines subclass it with their discipline's own slots: serve's
    in-flight batch, generation's active sequences.
    """

    __slots__ = (
        "idx", "spec", "speed", "reprogram_ms", "queue", "busy_until",
        "last_model", "resident", "down", "epoch", "requests", "busy_ms",
        "switch_count", "reprogram_time_ms", "failures", "downtime_ms",
        "down_since",
    )

    def __init__(self, idx: int, spec: InstanceSpec, reprogram_ms: float):
        self.idx = idx
        self.spec = spec
        self.speed = spec.speed
        self.reprogram_ms = (spec.reprogram_latency_ms
                             if spec.reprogram_latency_ms is not None
                             else reprogram_ms)
        self.queue = deque()
        self.busy_until = 0.0
        self.last_model: Optional[str] = None
        self.resident: Optional[str] = None
        self.down = False
        #: Bumped on every abort; stale completions carry an old epoch.
        self.epoch = 0
        self.requests = 0
        self.busy_ms = 0.0
        self.switch_count = 0
        self.reprogram_time_ms = 0.0
        self.failures = 0
        self.downtime_ms = 0.0
        self.down_since = 0.0


def _depth_integral():
    """Summary-detail ``sample``: fold ``(t, depth)`` points into the
    queue-depth step integral, in the float-add order
    ``slo._time_weighted_mean`` uses over the full sample list.

    Returns ``(sample, totals)``; ``totals()`` is ``(area, last_t,
    last_depth, max_depth)``.
    """
    area = 0.0
    prev_t = 0.0
    cur_depth = 0
    max_depth = 0

    def sample(point: Tuple[float, int]) -> None:
        nonlocal area, prev_t, cur_depth, max_depth
        now, d = point
        area += cur_depth * (now - prev_t)
        prev_t = now
        cur_depth = d
        if d > max_depth:
            max_depth = d

    def totals() -> Tuple[float, float, int, int]:
        return area, prev_t, cur_depth, max_depth

    return sample, totals


class _FleetEngine(Simulation):
    """The engine base: what every engine does the same way (see the
    module docstring).  A subclass builds ``instances`` and
    ``dispatcher`` and supplies ``run``, ``_record_sink``,
    ``_summary_sink`` and ``_instance_stats``."""

    def __init__(self, fleet: FleetSpec, scheduler, failures,
                 instance_base: int,
                 failure_horizon_ms: Optional[float]) -> None:
        # All engine randomness flows through FailureInjector's own
        # streams, seeded by the failure plan.
        super().__init__()
        self.fleet = fleet
        self.scheduler = scheduler
        self.failures = failures
        #: First global instance index (sharded cells offset their
        #: ``_Inst.idx`` so events, records, stats, and — critically
        #: — ``failure/<idx>`` RNG streams key by *global* identity:
        #: an instance's fault history never depends on which cell it
        #: landed in).
        self.instance_base = instance_base
        #: Failure-injection horizon override.  A sharded cell sees only
        #: its own arrival slice, so its default horizon (last local
        #: arrival) would differ from the unsharded run's; the shard
        #: driver passes the global last-arrival time instead.
        self.failure_horizon_ms = failure_horizon_ms

    def _setup(self, requests: Sequence, detail: str):
        """Start a run: the sink factory for ``detail`` and the arrival
        stream.

        ``detail="full"`` builds one record per request — the
        byte-identity surface the goldens pin.  ``detail="summary"``
        skips record and sample materialization and accumulates
        a summary on the fly: the web-scale path.  Percentiles and
        counts are bit-identical at both levels; means differ by float
        summation order only (completion order vs rid order), which can
        move them by many ulps, not just the last one.

        Arrivals never enter the event queue: the drain merges them,
        stable-sorted by time, against a queue that only carries
        engine events (see :meth:`Simulation._drain_merged`).
        """
        if detail == "full":
            make_sink = self._record_sink
        elif detail == "summary":
            make_sink = self._summary_sink
        else:
            raise ValueError(
                f"unknown detail level {detail!r}: use 'full' or "
                "'summary'")
        self._started = True
        return make_sink, sorted(requests, key=_BY_T)

    def _faults(self, arrivals: Sequence, p_fault: int, sample,
                pending: list, displace, restart, shift):
        """Arm fault injection; return the ``fail``/``recover`` handlers.

        ``(None, None)`` without a failure plan.  Otherwise every
        instance's first fault is pushed at priority ``p_fault``.  A
        fault marks the instance down, lets ``displace(inst, now)``
        abort the work in service (it returns what must be re-routed),
        and re-routes that work, then the instance's queue; a repair
        re-routes the work parked in ``pending``.  ``restart(inst,
        entry, now)`` is the discipline's reaction to ``entry`` joining
        ``inst``'s queue, and ``shift(delta)`` moves the run's
        queue-depth counter and returns it.
        """
        if self.failures is None:
            return None, None
        horizon = (self.failure_horizon_ms
                   if self.failure_horizon_ms is not None
                   else arrivals[-1].t_ms if arrivals else 0.0)
        injector = FailureInjector(self.failures, horizon)
        push = self.queue.push
        for inst in self.instances:
            t_fail = injector.next_failure_ms(inst.idx, 0.0)
            if t_fail is not None:
                push(t_fail, p_fault, ("fail", inst))
        dispatcher = self.dispatcher
        pick = dispatcher.pick
        emit = self.observer

        def route(entry, now: float) -> None:
            """Queue ``entry`` like a fresh arrival (a ``requeue``
            event), or park it (``requeue`` to instance ``-1``)."""
            shift(1)
            inst = pick(entry, now)
            if inst is None:
                pending.append(entry)
                if emit is not None:
                    emit(("requeue", now, entry.rid, -1))
                return
            inst.queue.append(entry)
            if emit is not None:
                emit(("requeue", now, entry.rid, inst.idx))
            restart(inst, entry, now)

        def on_fail(payload: tuple, now: float) -> None:
            inst = payload[1]
            inst.down = True
            inst.down_since = now
            inst.failures += 1
            dispatcher.down_count += 1
            if emit is not None:
                emit(("fail", now, inst.idx))
            lost = displace(inst, now)
            inst.resident = None  # weights are lost with the instance
            queued = list(inst.queue)
            inst.queue.clear()
            # Displaced work is detached until route() re-counts it.
            sample((now, shift(-len(queued))))
            for entry in lost:
                route(entry, now)
            for entry in queued:
                route(entry, now)
            push(now + injector.repair_duration_ms(inst.idx), p_fault,
                 ("recover", inst))

        def on_recover(payload: tuple, now: float) -> None:
            inst = payload[1]
            inst.down = False
            inst.downtime_ms += now - inst.down_since
            dispatcher.down_count -= 1
            if emit is not None:
                emit(("recover", now, inst.idx))
            t_fail = injector.next_failure_ms(inst.idx, now)
            if t_fail is not None:
                push(t_fail, p_fault, ("fail", inst))
            if pending:
                parked, pending[:] = list(pending), []
                shift(-len(parked))
                for entry in parked:
                    route(entry, now)

        return on_fail, on_recover

    def _totals(self, makespan: float, retries: Dict[int, int]) -> dict:
        """Result fields every workload class reports the same way."""
        instances = self.instances
        return dict(
            n_instances=len(instances),
            scheduler=self.scheduler.name,
            availability=self._availability(makespan),
            total_failures=sum(i.failures for i in instances),
            total_retries=sum(retries.values()),
        )

    def _availability(self, makespan: float) -> Optional[float]:
        """Fleet availability over the run (``None`` without failures)."""
        if self.failures is None:
            return None
        instances = self.instances
        horizon = max(makespan, self.now_ms)
        return (1.0 - sum(i.downtime_ms for i in instances)
                / (len(instances) * horizon) if horizon > 0 else 1.0)
