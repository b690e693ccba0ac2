"""Kernel-backed request-level cluster engine: the batch discipline.

This is :class:`~repro.serving.cluster.ClusterSimulator`'s execution
engine: the same event discipline as the legacy closure loop (free <
arrival < check at equal timestamps, insertion-order tie-breaks),
re-hosted on :mod:`repro.sim.kernel` and verified **bit-identical** on
seeded scenarios by the trace-identity goldens.  It runs on the fleet
substrate (:mod:`repro.sim.fleet`), which owns instance state, fault
injection and recovery, parking, the shared parts of the result sinks,
and availability; this module supplies the request-level service
discipline:

* **batches** — ``try_dispatch`` forms a same-model head prefix under
  the batching policy (arming a deadline ``check`` when a timeout
  policy must wait), prices it through the instance's target (a
  :class:`~repro.parallel.group.PipelineGroup` mixes with single-FPGA
  replicas in one fleet), and ``on_free`` retires it;
* **what a fault displaces** — the in-flight batch: the unserved tail
  of its busy window is refunded and its members requeue as retries,
  ahead of the instance's queue;
* **degraded-window marking** — requests arriving while any instance
  is down are flagged, so the SLO layer can report the failure-mode
  tail (``p99_degraded_ms``) separately from the healthy tail.

Performance: queue depth is one running counter of queued and parked
requests, batch costs are memoized per ``(model, batch size)``, switch
accounting compares resident-model names instead of re-programming the
accelerator every batch, and the built-in schedulers run inlined.  On
an unrestricted, fault-free fleet the least-loaded pick is O(1): a
:class:`_LoadIndex` buckets instances by load and answers with the
first minimum, falling back to the scan only while a completion lies
within ``_EPS`` of the arrival (where the scan's ``busy_until`` test
and the index's in-flight test differ).  One extra drain remains,
:meth:`ServeEngine._run_fast`: summary runs whose conditions rule out
every event but arrivals, completions and batching-deadline checks
take it inlined.  Same math, same floats, same order — just less work
per event.

Observer contract: an attached observer sees every trace tuple —
``("arrive", t, rid, model, inst)`` (``inst == -1`` while parked),
``("dispatch", t, inst, model, size, switch_ms)``, ``("free", t,
inst)``, ``("fail", t, inst)``, ``("recover", t, inst)`` — plus the
observer-only ``("requeue", t, rid, inst)`` for displaced work, in
nondecreasing time order.  ``dispatch`` pops exactly a head prefix of
the instance's queue, so consumers like
:class:`repro.obs.alerts.Watchdog` recover batch membership (and thus
per-request latency, online) by mirroring the queues from
arrive/requeue.  Observers are read-only: the bare-run trace stays
byte-identical with any observer attached.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..serving.batching import BatchingPolicy, ServiceTimeModel
from ..serving.scheduler import Scheduler
from ..serving.workload import Request
from .failures import FailurePlan
from .fleet import (_BY_RID, _EPS, _T_COMPLETE, Dispatcher, FleetSpec,
                    InstanceSpec, _depth_integral, _FleetEngine, _Inst)

__all__ = ["ServeEngine"]

# Event priorities at equal timestamps (identical to the legacy loop;
# faults are new and deliberately sort last so a fault at time t sees
# the state the legacy events left behind).
_P_FREE, _P_ARRIVAL, _P_CHECK, _P_FAULT = 0, 1, 2, 3


class _BatchCost:
    """Per-target memo of total batch service time (model, size) → ms."""

    __slots__ = ("svc", "_memo")

    def __init__(self, svc: ServiceTimeModel):
        self.svc = svc
        self._memo: Dict[Tuple[str, int], float] = {}

    def ms(self, model: str, size: int) -> float:
        key = (model, size)
        ms = self._memo.get(key)
        if ms is None:
            ms = self.svc.batch_service_ms(model, size)
            self._memo[key] = ms
        return ms


class _ServeInst(_Inst):
    """Serve's per-instance state: batch pricing and the batch in flight."""

    __slots__ = ("cost", "pending_check", "in_flight", "deploys", "batches",
                 "bit", "level")

    def __init__(self, idx: int, spec: InstanceSpec, reprogram_ms: float,
                 cost: _BatchCost):
        super().__init__(idx, spec, reprogram_ms)
        self.cost = cost
        self.pending_check = False
        #: ``(model, size, t_dispatch, t_complete, batch)`` while busy.
        self.in_flight: Optional[tuple] = None
        self.deploys = 0
        self.batches = 0

    def backlog(self, now_ms: float) -> int:
        """Queued requests plus the one in service (Scheduler Protocol)."""
        return len(self.queue) + (1 if self.busy_until > now_ms + _EPS
                                  else 0)


class _LoadIndex:
    """Exact O(1) least-loaded pick over an unrestricted, healthy fleet.

    Buckets instances by load, ``len(queue) + (in_flight is not None)``:
    ``levels[k]`` is an int bitmask of the fleet positions at load
    ``k``.  :meth:`best` returns the lowest set bit of the lowest
    non-empty level — the first minimum in fleet order, which is the
    scan's tie-break.  ``low`` is a lazy lower bound on that level:
    :meth:`update` lowers it and :meth:`best` walks it up past emptied
    levels.  A load rises by one arrival at a time, so the walk is
    amortized O(1).

    The index counts an instance busy while a batch is in flight; the
    scan counts it busy while ``busy_until > now + _EPS``.  The two
    agree unless a completion lies in ``(now, now + _EPS]`` — a case the
    engine detects from its event-queue head and answers with the scan.
    """

    __slots__ = ("insts", "levels", "low")

    def __init__(self, instances: Sequence[_ServeInst]):
        self.insts = list(instances)
        self.levels = [(1 << len(self.insts)) - 1]
        self.low = 0
        for pos, inst in enumerate(self.insts):
            inst.bit = 1 << pos
            inst.level = 0

    def update(self, inst: _ServeInst) -> None:
        """Re-bucket ``inst`` after its queue or in-flight batch moved."""
        load = len(inst.queue) + (inst.in_flight is not None)
        old = inst.level
        if load == old:
            return
        levels = self.levels
        bit = inst.bit
        levels[old] ^= bit
        while load >= len(levels):
            levels.append(0)
        levels[load] |= bit
        inst.level = load
        if load < self.low:
            self.low = load

    def best(self) -> _ServeInst:
        """The first least-loaded instance in fleet order."""
        levels = self.levels
        low = self.low
        mask = levels[low]
        while not mask:
            low += 1
            mask = levels[low]
        self.low = low
        return self.insts[(mask & -mask).bit_length() - 1]


class _ServeDispatcher(Dispatcher):
    """Capability/health-aware dispatch with inlined built-in policies."""

    def bind(self, queue, failing: bool):
        """A drain's ``pick(request, now_ms)`` and its load index.

        The capability/health filter only matters when the fleet is
        restricted or failures are live; otherwise the policy runs on
        the whole fleet directly (hot path), and least-loaded runs on
        a :class:`_LoadIndex`, which the drain keeps current.  The
        index is ``None`` on every other path.
        """
        if failing or self.restricted:
            return self.pick, None
        fast, fleet = self._pick_fast, self.instances
        if not self._least_loaded:
            def pick(request, now_ms):
                return fast(fleet, request, now_ms)
            return pick, None
        index = _LoadIndex(fleet)
        best = index.best

        def pick(request, now_ms):
            head = queue.head
            if head is not None and head[0] <= now_ms + _EPS:
                return fast(fleet, request, now_ms)
            return best()
        return pick, index

    def _pick_fast(self, candidates, request, now_ms):
        if self._round_robin:
            # Same cursor the scheduler object would advance, so mixing
            # this path with Scheduler.pick (restricted fleets) cannot
            # desync the rotation.
            scheduler = self.scheduler
            inst = candidates[scheduler._next % len(candidates)]
            scheduler._next += 1
            return inst
        edge = now_ms + _EPS
        if self._least_loaded:
            best = None
            best_b = 0
            for inst in candidates:
                b = len(inst.queue) + (1 if inst.busy_until > edge else 0)
                if best is None or b < best_b:
                    best, best_b = inst, b
            return best
        if self._affinity:
            model = request.model
            best = sticky = None
            best_b = sticky_b = 0
            for inst in candidates:
                b = len(inst.queue) + (1 if inst.busy_until > edge else 0)
                if best is None or b < best_b:
                    best, best_b = inst, b
                if inst.last_model == model and (sticky is None
                                                 or b < sticky_b):
                    sticky, sticky_b = inst, b
            if sticky is not None and sticky_b <= best_b + self._slack:
                return sticky
            return best
        return self.scheduler.pick(candidates, request, now_ms)


class ServeEngine(_FleetEngine):
    """One run of the request-level cluster simulation."""

    def __init__(
        self,
        accel,
        fleet: FleetSpec,
        scheduler: Scheduler,
        batching: BatchingPolicy,
        models: Mapping,
        reprogram_latency_ms: float = 0.0,
        check_jitter_ms: float = 0.0,
        failures: Optional[FailurePlan] = None,
        instance_base: int = 0,
        failure_horizon_ms: Optional[float] = None,
        rng_seed=0,
    ):
        super().__init__(fleet, scheduler, failures, instance_base,
                         failure_horizon_ms, rng_seed)
        self.accel = accel
        self.batching = batching
        self.check_jitter_ms = check_jitter_ms
        # One batch-cost memo per distinct pricing target: instances
        # without a target override share the cluster-wide model (and
        # its memo), a PipelineGroup instance prices through its own.
        shared = _BatchCost(ServiceTimeModel(accel, models))
        costs: Dict[int, _BatchCost] = {}
        self.instances: List[_ServeInst] = []
        for idx, spec in enumerate(fleet.specs):
            if spec.slots is not None:
                raise ValueError(
                    "InstanceSpec.slots is generate-mode only: the "
                    "request-level serve simulation has no sequence "
                    "slots (instance "
                    f"{idx} sets slots={spec.slots})")
            if spec.target is None:
                cost = shared
            else:
                cost = costs.get(id(spec.target))
                if cost is None:
                    cost = _BatchCost(ServiceTimeModel(spec.target, models))
                    costs[id(spec.target)] = cost
            self.instances.append(
                _ServeInst(instance_base + idx, spec, reprogram_latency_ms,
                           cost))
        self.dispatcher = _ServeDispatcher(scheduler, self.instances)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request], detail: str = "full"):
        """Simulate the stream to completion and return the result: a
        :class:`~repro.serving.cluster.SimulationResult` at
        ``detail="full"``, a :class:`~repro.sim.summary.ServeSummary`
        at ``detail="summary"`` (see :meth:`_FleetEngine._setup`).

        Both levels run the same handlers; only the result sink differs
        (:meth:`_record_sink` / :meth:`_summary_sink`).  The one extra
        drain is :meth:`_run_fast`, the inlined summary drain for runs
        whose conditions rule out every event but arrivals, frees and
        deadline checks: no failures, an unrestricted fleet, stock
        batching (with or without a timeout), and nothing attached.
        The result types live in :mod:`repro.serving.cluster`, imported
        lazily to keep the package graph acyclic.
        """
        make_sink, arrivals = self._setup(requests, detail)
        queue = self.queue
        push = queue.push
        note = self.observer
        dispatcher = self.dispatcher
        batching = self.batching
        max_batch = batching.max_batch
        timeout_ms = batching.timeout_ms
        # Stock policies inline their decide() logic; a subclass with
        # custom semantics keeps the call.
        decide = None if type(batching) is BatchingPolicy else batching.decide
        check_jitter = self.check_jitter_ms
        failing = self.failures is not None
        pick, index = dispatcher.bind(queue, failing)
        # Least-loaded only: re-bucket an instance after each event
        # that touched its queue or batch (arrival, free, check).
        update = index.update if index is not None else None

        if (detail == "summary" and not failing and not dispatcher.restricted
                and decide is None and note is None
                and self.profiler is None):
            return self._run_fast(arrivals, index)

        #: Queued plus parked requests: the work not yet dispatched.
        depth = 0
        #: Requests parked while every capable instance is down.
        pending: List[Request] = []
        retries: Dict[int, int] = {}
        degraded: Dict[int, bool] = {}
        # The sink: ``emit`` takes trace tuples (None when nobody
        # listens), ``sample`` takes ``(t, depth)`` points and
        # ``complete`` takes ``(model, idx, size, t_dispatch,
        # t_complete, batch)`` rows of finished batches.
        emit, sample, complete, result = make_sink(retries, degraded)

        def try_dispatch(inst: _ServeInst, now: float) -> None:
            nonlocal depth
            if inst.down or inst.busy_until > now + _EPS or not inst.queue:
                return
            iq = inst.queue
            head = iq[0]
            model = head.model
            if max_batch == 1:
                prefix = 1
            else:
                prefix = 0
                for req in iq:
                    if prefix >= max_batch or req.model != model:
                        break
                    prefix += 1
            if decide is not None:
                size = decide(prefix, now - head.t_ms)
            elif prefix >= max_batch:
                size = max_batch
            elif timeout_ms is None:
                size = prefix
            elif now - head.t_ms + _EPS >= timeout_ms:
                size = prefix
            else:
                size = None
            if size is None:
                if not inst.pending_check:
                    assert timeout_ms is not None
                    deadline = head.t_ms + timeout_ms
                    # Optional early wakeup (jitter study); once inside
                    # the jitter window, arm the true deadline so the
                    # early check cannot respawn itself forever.
                    target = deadline - check_jitter
                    if target <= now + _EPS:
                        target = deadline
                    push(target if target > now else now, _P_CHECK,
                         ("check", inst))
                    inst.pending_check = True
                return
            if inst.in_flight is not None:
                return  # completes within _EPS; its free event dispatches
            batch = [iq.popleft() for _ in range(size)]
            depth -= size
            switched = inst.resident != model
            if switched:
                inst.cost.svc.config(model)  # validate before residency
                inst.resident = model
                inst.switch_count += 1
                inst.reprogram_time_ms += inst.reprogram_ms
                switch_ms = inst.reprogram_ms
            else:
                switch_ms = 0.0
            inst.deploys += 1
            total_ms = switch_ms + inst.cost.ms(model, size) / inst.speed
            complete_ms = now + total_ms
            inst.busy_until = complete_ms
            inst.busy_ms += total_ms
            inst.in_flight = (model, size, now, complete_ms, batch)
            if emit is not None:
                emit(("dispatch", now, inst.idx, model, size, switch_ms))
            push(complete_ms, _P_FREE, ("free", inst, inst.epoch))
            sample((now, depth))

        def on_arrival(req: Request, now: float) -> None:
            nonlocal depth
            depth += 1
            if failing and dispatcher.down_count:
                degraded[req.rid] = True
            inst = pick(req, now)
            if inst is None:
                pending.append(req)
                if emit is not None:
                    emit(("arrive", now, req.rid, req.model, -1))
                sample((now, depth))
                return
            inst.queue.append(req)
            inst.last_model = req.model
            if emit is not None:
                emit(("arrive", now, req.rid, req.model, inst.idx))
            sample((now, depth))
            try_dispatch(inst, now)
            if update is not None:
                update(inst)

        def on_free(payload: tuple, now: float) -> None:
            inst: _ServeInst = payload[1]
            if payload[2] != inst.epoch:
                return  # batch aborted by a failure; event is stale
            model, size, t_disp, t_done, batch = inst.in_flight
            inst.in_flight = None
            inst.batches += 1
            inst.requests += size
            complete((model, inst.idx, size, t_disp, t_done, batch))
            if emit is not None:
                emit(("free", now, inst.idx))
            try_dispatch(inst, now)
            if update is not None:
                update(inst)

        def on_check(payload: tuple, now: float) -> None:
            # Deadline checks may be stale: try_dispatch re-derives
            # busy state, queue head, and head age from scratch, so a
            # stale check either no-ops, re-arms for the current head,
            # or dispatches exactly what the policy would anyway.
            inst: _ServeInst = payload[1]
            inst.pending_check = False
            try_dispatch(inst, now)
            if update is not None:
                update(inst)

        def displace(inst: _ServeInst, now: float):
            """A fault aborts the in-flight batch: refund the unserved
            tail of the busy window and requeue the members as retries
            (a batch completing within ``_EPS`` still frees normally)."""
            if inst.in_flight is None or inst.busy_until <= now + _EPS:
                return ()
            inst.busy_ms -= inst.busy_until - now
            inst.busy_until = now
            inst.epoch += 1
            batch = inst.in_flight[4]
            inst.in_flight = None
            for req in batch:
                retries[req.rid] = retries.get(req.rid, 0) + 1
            return batch

        def restart(inst: _ServeInst, req: Request, now: float) -> None:
            inst.last_model = req.model
            try_dispatch(inst, now)

        def shift(delta: int) -> int:
            nonlocal depth
            depth += delta
            return depth

        on_fail, on_recover = self._faults(
            arrivals, _P_FAULT, emit, sample, pending, displace, restart,
            shift)

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "free":
                on_free(payload, now)
            elif kind == "check":
                on_check(payload, now)
            elif kind == "fail":
                on_fail(payload, now)
            else:
                on_recover(payload, now)

        # Frees (priority 0) pop ahead of arrivals at equal timestamps;
        # check (2) and fault (3) events sort after them.
        self._drain_merged(arrivals, on_arrival, handle, _P_FREE)
        return result()

    # ------------------------------------------------------------------
    def _record_sink(self, retries: Dict[int, int],
                     degraded: Dict[int, bool]):
        """Full detail: the trace (:meth:`_tee`), the sample list, and
        batch rows that become one ``RequestRecord`` per request — all
        list appends, no Python frame per event or per request."""
        from ..serving.cluster import RequestRecord, SimulationResult

        samples: List[Tuple[float, int]] = []
        #: Completed batches: (model, idx, size, t_disp, t_done, batch).
        done: List[tuple] = []

        def result():
            # Records are named tuples built straight from the batch
            # rows: ``tuple.__new__`` skips the keyword-binding
            # constructor, the dominant per-request cost of
            # materializing a full result.
            new = tuple.__new__
            get_retries, get_degraded = retries.get, degraded.get
            records = [
                new(RequestRecord, (req.rid, model, idx, size, req.t_ms,
                                    t_disp, t_done, get_retries(req.rid, 0),
                                    get_degraded(req.rid, False)))
                for model, idx, size, t_disp, t_done, batch in done
                for req in batch
            ]
            records.sort(key=_BY_RID)
            makespan = max(map(_T_COMPLETE, records), default=0.0)
            return SimulationResult(
                records=records,
                instances=self._instance_stats(),
                makespan_ms=makespan,
                queue_samples=samples,
                trace=self.trace,
                batching=self.batching.name,
                **self._totals(makespan, retries),
            )

        return self._tee(), samples.append, done.append, result

    def _summary_sink(self, retries: Dict[int, int],
                      degraded: Dict[int, bool]):
        """Summary detail: fold batches and depth samples as they fire.

        Latency multisets are collected per model (percentiles stay
        exact); wait/batch-size sums and the queue-depth integral are
        folded in as events fire.  Only an attached observer sees trace
        tuples (``emit`` is ``None`` otherwise, so none are built).
        """
        m_lats: Dict[str, List[float]] = {}
        m_wait: Dict[str, float] = {}
        m_sq: Dict[str, int] = {}
        sample, depth_totals = _depth_integral()
        makespan = 0.0
        total_done = 0
        degraded_done = 0
        touched: Optional[List[float]] = (
            [] if self.failures is not None else None)

        def complete(row: tuple) -> None:
            nonlocal makespan, total_done, degraded_done
            model, _idx, size, t_disp, t_done, batch = row
            lats = m_lats.get(model)
            if lats is None:
                lats = m_lats[model] = []
                m_wait[model] = 0.0
                m_sq[model] = 0
            append = lats.append
            wait = 0.0
            if touched is not None:
                for req in batch:
                    t0 = req.t_ms
                    lat = t_done - t0
                    append(lat)
                    wait += t_disp - t0
                    rid = req.rid
                    deg = degraded.get(rid, False)
                    if deg:
                        degraded_done += 1
                    if deg or retries.get(rid):
                        touched.append(lat)
            else:
                for req in batch:
                    t0 = req.t_ms
                    append(t_done - t0)
                    wait += t_disp - t0
            m_wait[model] += wait
            m_sq[model] += size * size
            total_done += size
            makespan = t_done  # free events pop in time order

        def result():
            return self._build_summary(
                total_done, makespan, m_lats, m_wait, m_sq, *depth_totals(),
                retries, degraded_done, touched)

        return self.observer, sample, complete, result

    def _run_fast(self, arrivals: List[Request], index):
        """The web-scale summary drain: the handlers, sink and merge
        loop of :meth:`run`, inlined into one loop.

        Taken only for summary runs with no failures, an unrestricted
        fleet, stock batching, and no observer or profiler attached.
        Those conditions kill whole event classes — no fault/recover
        events, no stale epochs, pick() never parks a request (nothing
        is ever pending) — so the engine queue holds only completions
        (priority ``_P_FREE``) and, under a timeout policy, deadline
        checks (``_P_CHECK``).  The merge test against the arrival
        stream is a timestamp compare: a completion at an arrival's
        exact timestamp pops first and a check pops after it, the
        heap's priority order.  The handler tells the two apart by
        priority.
        """
        queue = self.queue
        push = queue.push
        pop = queue.pop
        instances = self.instances
        dispatcher = self.dispatcher
        max_batch = self.batching.max_batch
        timeout_ms = self.batching.timeout_ms
        timed = timeout_ms is not None
        check_jitter = self.check_jitter_ms
        update = index.update if index is not None else None
        m_lats: Dict[str, List[float]] = {}
        m_wait: Dict[str, float] = {}
        m_sq: Dict[str, int] = {}
        area = 0.0
        prev_t = 0.0
        cur_depth = 0
        max_depth = 0
        makespan = 0.0
        total_done = 0
        queued_total = 0
        rr = dispatcher._round_robin
        n_inst = len(instances)
        # The cursor _pick_fast advances: a round-robin scheduler
        # object reused across runs continues its rotation here too.
        rr_next = dispatcher.scheduler._next % n_inst if rr else 0
        pick_fast = dispatcher._pick_fast
        # The indexed pick is inlined below: the merge loop already
        # holds the queue head that ``pick`` would re-read.
        best = index.best if index is not None else None

        def dispatch(inst: _ServeInst, now: float) -> None:
            # try_dispatch past its busy and empty-queue tests, which
            # the call sites make; the same tests in the same order.
            nonlocal queued_total, area, prev_t, cur_depth
            iq = inst.queue
            head = iq[0]
            model = head.model
            if max_batch == 1:
                size = 1
            else:
                size = 0
                for r in iq:
                    if size >= max_batch or r.model != model:
                        break
                    size += 1
                if (timed and size < max_batch
                        and now - head.t_ms + _EPS < timeout_ms):
                    if not inst.pending_check:
                        deadline = head.t_ms + timeout_ms
                        target = deadline - check_jitter
                        if target <= now + _EPS:
                            target = deadline
                        push(target if target > now else now, _P_CHECK,
                             ("check", inst))
                        inst.pending_check = True
                    return
            if inst.in_flight is not None:
                return  # completes within _EPS; its free event dispatches
            batch = [iq.popleft() for _ in range(size)]
            queued_total -= size
            if inst.resident != model:
                inst.cost.svc.config(model)  # validate, then reside
                inst.resident = model
                inst.switch_count += 1
                inst.reprogram_time_ms += inst.reprogram_ms
                switch_ms = inst.reprogram_ms
            else:
                switch_ms = 0.0
            inst.deploys += 1
            total_ms = switch_ms + inst.cost.ms(model, size) / inst.speed
            complete = now + total_ms
            inst.busy_until = complete
            inst.busy_ms += total_ms
            inst.in_flight = (model, size, now, complete, batch)
            push(complete, _P_FREE, ("free", inst, inst.epoch))
            area += cur_depth * (now - prev_t)
            prev_t = now
            cur_depth = queued_total  # depth fell: max unchanged

        def on_event(head: tuple) -> None:
            nonlocal makespan, total_done
            inst: _ServeInst = head[3][1]
            if head[1]:  # _P_CHECK: a deadline wakeup, possibly stale
                now = head[0]
                inst.pending_check = False
                if inst.busy_until <= now + _EPS and inst.queue:
                    dispatch(inst, now)
                if update is not None:
                    update(inst)
                return
            model, size, t_disp, t_done, batch = inst.in_flight
            inst.in_flight = None
            inst.batches += 1
            inst.requests += size
            lats = m_lats.get(model)
            if lats is None:
                lats = m_lats[model] = []
                m_wait[model] = 0.0
                m_sq[model] = 0
            append = lats.append
            wait = 0.0
            for r in batch:
                t0 = r.t_ms
                append(t_done - t0)
                wait += t_disp - t0
            m_wait[model] += wait
            m_sq[model] += size * size
            total_done += size
            makespan = t_done  # free events pop in time order
            if inst.queue:
                dispatch(inst, t_done)
            if update is not None:
                update(inst)

        for req in arrivals:
            ta = req.t_ms
            head = queue.head
            while head is not None and head[0] <= ta:
                if head[1] and head[0] == ta:
                    break  # a check at ta pops after the arrival
                pop()
                on_event(head)
                head = queue.head
            if rr:
                inst = instances[rr_next]
                rr_next += 1
                if rr_next == n_inst:
                    rr_next = 0
            elif best is not None and (head is None
                                       or head[0] > ta + _EPS):
                inst = best()
            else:
                inst = pick_fast(instances, req, ta)
            inst.queue.append(req)
            queued_total += 1
            inst.last_model = req.model
            d = queued_total
            area += cur_depth * (ta - prev_t)
            prev_t = ta
            cur_depth = d
            if d > max_depth:
                max_depth = d
            if inst.busy_until <= ta + _EPS:
                dispatch(inst, ta)
            if update is not None:
                update(inst)
        # Simulated time ends at the last event popped (a stale check
        # may outlive the last completion), else at the last arrival.
        now = arrivals[-1].t_ms if arrivals else self.now_ms
        head = queue.head
        while head is not None:
            pop()
            now = head[0]
            on_event(head)
            head = queue.head
        self.now_ms = now
        if rr:
            dispatcher.scheduler._next += len(arrivals)
        return self._build_summary(
            total_done, makespan, m_lats, m_wait, m_sq, area, prev_t,
            cur_depth, max_depth, {}, 0, None)

    def _build_summary(self, total_done, makespan, m_lats, m_wait, m_sq,
                       area, prev_t, cur_depth, max_depth, retries,
                       degraded_done, touched):
        """Fold the drain accumulators into a :class:`ServeSummary`."""
        from .summary import ServeSummary

        failing = self.failures is not None
        return ServeSummary(
            total_requests=total_done,
            makespan_ms=makespan,
            batching=self.batching.name,
            model_lats=m_lats,
            model_wait_sum=m_wait,
            model_batch_sq=m_sq,
            instances=self._instance_stats(),
            depth_area=area,
            depth_last_t=prev_t,
            depth_last=cur_depth,
            max_queue_depth=max_depth,
            degraded_count=degraded_done if failing else None,
            touched_lats=touched,
            **self._totals(makespan, retries),
        )

    def _instance_stats(self) -> list:
        from ..serving.cluster import InstanceStats

        return [
            InstanceStats(
                index=i.idx, requests=i.requests, batches=i.batches,
                busy_ms=i.busy_ms, reprogram_count=i.deploys,
                switch_count=i.switch_count,
                reprogram_time_ms=i.reprogram_time_ms,
                failures=i.failures, downtime_ms=i.downtime_ms,
            ) for i in self.instances
        ]
