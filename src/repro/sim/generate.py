"""Kernel-backed continuous-batching generation engine: the token-step
discipline.

The execution engine behind :class:`~repro.serving.generation.
GenerationClusterSimulator`, on :mod:`repro.sim.kernel`: step
completions before arrivals at equal timestamps, with seeded scenarios
held bit for bit by the trace-identity goldens.  It runs on the fleet
substrate (:mod:`repro.sim.fleet`), which owns instance state, fault
injection and recovery, parking, the shared parts of the result sinks,
and availability; this module supplies the token-level service
discipline:

* **steps** — ``start_step`` admits waiting work at a step boundary
  (prefills) and decodes every active sequence by one token;
  ``finish_step`` emits the tokens and vacates finished sequences.
  Per-instance speed scales the compute half of every step (weight
  streams and attention sweeps);
* **priority admission with preemption** — when any request carries a
  nonzero priority, admission picks waiting work by ``(priority desc,
  rid asc)`` instead of FIFO, and a strictly-higher-priority arrival
  may evict the lowest-priority in-flight sequence at a step boundary.
  The victim requeues as a *resume*: it keeps its emitted tokens, and
  on re-admission pays a re-prefill over its cached positions (the KV
  rebuild) before decoding on;
* **what a fault displaces** — a fault mid-step (including
  mid-prefill) aborts the step: sequences that had already emitted
  their first token requeue as resumes, ones still in prefill requeue
  as fresh requests with their counters refunded, and both count a
  retry.

Performance: events here are already batched per resource — one
``("step", inst, epoch)`` event advances *every* in-flight sequence of
an instance by one token (the decode sweep prices all slots in one
:meth:`~repro.serving.generation.GenerationServiceModel.decode_step_ms`
call), so the event queue holds at most one step event per instance,
never one per token.  Queue depth is one running counter of queued,
active and parked sequences, so per-event bookkeeping does not grow
with fleet size.  Most boundaries admit nothing: with an empty queue
and an unchanged resident model, ``start_step`` skips preemption,
admission and switch pricing and goes straight to the step tail it
shares with the admission branch, and ``finish_step`` builds the
surviving set and the records only when a sequence finished.

Observer contract: attached observers receive every event tuple —
``("arrive", t, rid, model, inst)``, ``("admit", t, inst, rid, prompt,
output)``, ``("resume", t, inst, rid, cached, remaining)``, ``("step",
t, inst, model, admitted, decoding, duration)``, ``("finish", t, inst,
rid)``, ``("preempt", t, inst, rid)``, ``("fail"/"recover", t, inst)``
and ``("requeue", t, rid, inst)``, at either detail level.  Admits at
time ``t`` precede their step event, and that step's first tokens land
at ``t + duration``; ``preempt`` returns the victim to its instance's
queue *without* a requeue event; a ``fail`` before a step completes
aborts it (no first tokens were produced).  The
:class:`repro.obs.alerts.Watchdog` derives online TTFT from exactly
these rules.  The observer is the stream's only consumer: a bare run
builds no event tuples.  Observers are read-only, so records and
samples stay byte-identical with any observer attached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..serving.scheduler import Scheduler
from ..serving.workload import GenerationRequest
from .failures import FailurePlan
from .fleet import (_BY_RID, _EPS, _T_COMPLETE, Dispatcher, FleetSpec,
                    InstanceSpec, _depth_integral, _FleetEngine, _Inst)

__all__ = ["GenerationEngine"]

# Step completions land before new arrivals at equal timestamps (the
# order the trace digests in tests/goldens/trace_digests.json pin);
# faults sort last so they observe settled state.
_P_STEP, _P_ARRIVAL, _P_FAULT = 0, 1, 2


class _Seq:
    """One in-flight request's decoding state."""

    __slots__ = ("req", "cached", "remaining", "t_admit", "t_first")

    def __init__(self, req: GenerationRequest, t_admit: float,
                 t_first: float):
        self.req = req
        self.cached = req.prompt_tokens
        self.remaining = req.output_tokens - 1
        self.t_admit = t_admit
        self.t_first = t_first


class _Resume:
    """A preempted/failed-over sequence waiting to re-enter a slot.

    Quacks like a request for dispatch purposes (``model``,
    ``priority``, ``rid``) while carrying the decoding state to
    restore.  Re-admission re-prefills ``seq.cached`` positions — the
    evicted KV cache must be rebuilt — then decoding continues.
    """

    __slots__ = ("seq",)

    def __init__(self, seq: _Seq):
        self.seq = seq

    @property
    def model(self) -> str:
        return self.seq.req.model

    @property
    def rid(self) -> int:
        return self.seq.req.rid

    @property
    def priority(self) -> int:
        return self.seq.req.priority

    @property
    def t_ms(self) -> float:
        return self.seq.req.t_ms


class _GenInst(_Inst):
    """Generation's per-instance state: slots and the active sequences."""

    __slots__ = ("slots", "active", "step_done", "steps", "prefills",
                 "tokens", "preemptions")

    def __init__(self, idx: int, spec: InstanceSpec, reprogram_ms: float,
                 slots: int):
        super().__init__(idx, spec, reprogram_ms)
        self.slots = spec.slots if spec.slots is not None else slots
        self.active: List[_Seq] = []
        #: The decode set of the step in flight (``()`` between steps).
        self.step_done: Sequence[_Seq] = ()
        self.steps = 0
        self.prefills = 0
        self.tokens = 0
        self.preemptions = 0

    def backlog(self, now_ms: float) -> int:
        """Waiting plus in-flight sequences (Scheduler Protocol)."""
        return len(self.queue) + len(self.active)


class _GenDispatcher(Dispatcher):
    """Capability/health-aware dispatch with inlined built-in policies."""

    def _pick_fast(self, candidates, request, now_ms):
        if self._least_loaded:
            best = None
            best_b = 0
            for inst in candidates:
                b = len(inst.queue) + len(inst.active)
                if best is None or b < best_b:
                    best, best_b = inst, b
            return best
        if self._affinity:
            model = request.model
            best = sticky = None
            best_b = sticky_b = 0
            for inst in candidates:
                b = len(inst.queue) + len(inst.active)
                if best is None or b < best_b:
                    best, best_b = inst, b
                if inst.last_model == model and (sticky is None
                                                 or b < sticky_b):
                    sticky, sticky_b = inst, b
            if sticky is not None and sticky_b <= best_b + self._slack:
                return sticky
            return best
        return self.scheduler.pick(candidates, request, now_ms)


class GenerationEngine(_FleetEngine):
    """One run of the token-level continuous-batching simulation."""

    def __init__(
        self,
        service,  # GenerationServiceModel
        fleet: FleetSpec,
        slots: int,
        scheduler: Scheduler,
        reprogram_latency_ms: float = 0.0,
        failures: Optional[FailurePlan] = None,
        preemption: Optional[bool] = None,
        instance_base: int = 0,
        failure_horizon_ms: Optional[float] = None,
    ):
        super().__init__(fleet, scheduler, failures, instance_base,
                         failure_horizon_ms)
        self.service = service
        self.slots = slots
        #: None = auto: preempt iff any request carries a priority.
        self.preemption = preemption
        for spec in fleet.specs:
            if spec.target is not None:
                raise ValueError(
                    "per-instance targets are serve-mode only: the "
                    "generation engine prices every step through the "
                    "cluster accelerator's decode model")
        self.instances = [
            _GenInst(instance_base + idx, spec, reprogram_latency_ms, slots)
            for idx, spec in enumerate(fleet.specs)
        ]
        self.dispatcher = _GenDispatcher(scheduler, self.instances)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[GenerationRequest],
            detail: str = "full"):
        """Simulate the stream to completion and return the result: a
        :class:`~repro.serving.generation.GenerationSimulationResult` at
        ``detail="full"``, a :class:`~repro.sim.summary.
        GenerationSummary` at ``detail="summary"`` (see
        :meth:`_FleetEngine._setup`).  Both levels run the same
        handlers; only the result sink differs (:meth:`_record_sink` /
        :meth:`_summary_sink`).
        """
        from ..serving.generation import GenerationRecord

        make_sink, arrivals = self._setup(requests, detail)
        queue = self.queue
        push = queue.push
        dispatcher = self.dispatcher
        service = self.service
        prefill_ms = service.prefill_ms
        decode_step_ms = service.decode_step_ms
        priority_mode = (self.preemption if self.preemption is not None
                         else any(r.priority for r in requests))
        # Named-tuple records built without the keyword constructor
        # (see ServeEngine._record_sink).
        new_record = tuple.__new__

        #: Work parked while every capable instance is down.
        pending: List[Union[GenerationRequest, _Resume]] = []
        #: Queued plus active plus parked sequences: the work not yet
        #: finished.
        depth = 0
        retries: Dict[int, int] = {}
        preempt_counts: Dict[int, int] = {}
        degraded: Dict[int, bool] = {}
        failing = self.failures is not None
        #: Takes event tuples: the observer, None when nobody listens.
        emit = self.observer
        # The sink: ``sample`` takes ``(t, depth)`` points and
        # ``complete`` takes one ``GenerationRecord`` per finished
        # request.
        sample, complete, result = make_sink(retries)

        def take_next(inst: _GenInst, resident: Optional[str]):
            """Pop the next admissible queue entry (None if head-blocked).

            FIFO without priorities; ``(priority desc, rid asc)`` when
            priorities are in play — the order the goldens pin.
            """
            iq = inst.queue
            if not iq:
                return None
            if not priority_mode:
                head = iq[0]
                if resident is not None and head.model != resident:
                    return None
                return iq.popleft()
            best_at = -1
            best_key = None
            for pos, entry in enumerate(iq):
                if resident is not None and entry.model != resident:
                    continue
                key = (-entry.priority, entry.rid)
                if best_key is None or key < best_key:
                    best_at, best_key = pos, key
            if best_at < 0:
                return None
            iq.rotate(-best_at)
            entry = iq.popleft()
            iq.rotate(best_at)
            return entry

        def preempt_for(inst: _GenInst, now: float) -> None:
            """Evict low-priority actives for strictly-higher waiters.

            Only waiters of the resident model are eligible: in-flight
            sequences all share one weight set, so an eviction could
            never admit a different model anyway (mixed weights cannot
            be resident together).
            """
            iq = inst.queue
            while iq and inst.active and len(inst.active) >= inst.slots:
                resident = inst.active[0].req.model
                top = max((e.priority for e in iq if e.model == resident),
                          default=None)
                victim = min(
                    inst.active,
                    key=lambda s: (s.req.priority, s.cached, -s.req.rid))
                if top is None or top <= victim.req.priority:
                    return
                inst.active.remove(victim)
                inst.preemptions += 1
                preempt_counts[victim.req.rid] = (
                    preempt_counts.get(victim.req.rid, 0) + 1)
                if emit is not None:
                    emit(("preempt", now, inst.idx, victim.req.rid))
                iq.append(_Resume(victim))

        def start_step(inst: _GenInst, now: float) -> None:
            """Admit at the boundary, then run one engine step."""
            if inst.down or inst.busy_until > now + _EPS:
                return
            active = inst.active
            speed = inst.speed
            if (not inst.queue and active
                    and active[0].req.model == inst.resident):
                # Nothing waits and the weights stay: no preemption, no
                # admission, no switch — the step is the decode sweep.
                model = inst.resident
                # The active list itself: it changes in place only at
                # a boundary, after finish_step has advanced it.
                decoding = active
                n_admitted = 0
                duration = 0.0
            else:
                if priority_mode:
                    preempt_for(inst, now)
                admitted: List[Union[GenerationRequest, _Resume]] = []
                resident = active[0].req.model if active else None
                while len(active) + len(admitted) < inst.slots:
                    entry = take_next(inst, resident)
                    if entry is None:
                        break
                    admitted.append(entry)
                    if resident is None:
                        resident = entry.model
                if not admitted and not active:
                    return
                model = resident
                if inst.resident != model:
                    service.config(model)  # validate before residency
                    inst.resident = model
                    inst.switch_count += 1
                    inst.reprogram_time_ms += inst.reprogram_ms
                    duration = inst.reprogram_ms
                else:
                    duration = 0.0
                # Decode sweep covers sequences active *before* this
                # step; the newly admitted prefill inside it and join
                # the next one.
                decoding = list(active)
                n_admitted = len(admitted)
                for entry in admitted:
                    if type(entry) is _Resume:
                        seq = entry.seq
                        duration += prefill_ms(model, seq.cached) / speed
                        active.append(seq)
                        inst.prefills += 1
                        if emit is not None:
                            emit(("resume", now, inst.idx, seq.req.rid,
                                  seq.cached, seq.remaining))
                    else:
                        duration += (prefill_ms(model, entry.prompt_tokens)
                                     / speed)
                        seq = _Seq(entry, t_admit=now, t_first=now + duration)
                        active.append(seq)
                        inst.prefills += 1
                        inst.requests += 1
                        inst.tokens += 1  # the prefill's first token
                        if emit is not None:
                            emit(("admit", now, inst.idx, entry.rid,
                                  entry.prompt_tokens, entry.output_tokens))
            inst.last_model = model
            if decoding:
                duration += decode_step_ms(
                    model, [s.cached + 1 for s in decoding]) / speed
            end = now + duration
            inst.busy_until = end
            inst.busy_ms += duration
            inst.steps += 1
            inst.step_done = decoding
            inst.tokens += len(decoding)
            if emit is not None:
                emit(("step", now, inst.idx, model, n_admitted,
                      len(decoding), duration))
            push(end, _P_STEP, ("step", inst, inst.epoch))
            sample((now, depth))

        def vacate(inst: _GenInst, now: float) -> None:
            """Record every finished sequence and free its slot."""
            nonlocal depth
            still: List[_Seq] = []
            for seq in inst.active:
                if seq.remaining <= 0 and seq.t_first <= now + _EPS:
                    req = seq.req
                    done_ms = seq.t_first if req.output_tokens == 1 else now
                    rid = req.rid
                    complete(new_record(GenerationRecord, (
                        rid, req.model, inst.idx, req.prompt_tokens,
                        req.output_tokens, req.t_ms, seq.t_admit,
                        seq.t_first, done_ms, retries.get(rid, 0),
                        preempt_counts.get(rid, 0),
                        degraded.get(rid, False))))
                    if emit is not None:
                        emit(("finish", now, inst.idx, rid))
                else:
                    still.append(seq)
            depth -= len(inst.active) - len(still)
            inst.active = still

        def finish_step(inst: _GenInst, now: float) -> None:
            """Step boundary: emit tokens, vacate finished sequences."""
            for seq in inst.step_done:
                seq.cached += 1
                seq.remaining -= 1
            inst.step_done = ()
            limit = now + _EPS
            for seq in inst.active:
                if seq.remaining <= 0 and seq.t_first <= limit:
                    vacate(inst, now)
                    break
            sample((now, depth))
            start_step(inst, now)

        def on_arrival(req: GenerationRequest, now: float) -> None:
            nonlocal depth
            depth += 1
            if failing and dispatcher.down_count:
                degraded[req.rid] = True
            inst = dispatcher.pick(req, now)
            if inst is None:
                pending.append(req)
                if emit is not None:
                    emit(("arrive", now, req.rid, req.model, -1))
                sample((now, depth))
                return
            inst.queue.append(req)
            if inst.last_model is None:
                inst.last_model = req.model
            if emit is not None:
                emit(("arrive", now, req.rid, req.model, inst.idx))
            sample((now, depth))
            start_step(inst, now)

        def displace(inst: _GenInst, now: float):
            """A fault mid-step (possibly mid-prefill) aborts the step and
            displaces every active sequence as a retry."""
            nonlocal depth
            displaced: List[Union[GenerationRequest, _Resume]] = []
            aborted_step = inst.busy_until > now + _EPS
            decoding_ids = set()
            if aborted_step:
                # Refund the unserved tail and bump the epoch so the
                # scheduled step-completion event goes stale.  The
                # aborted sweep's decode tokens were counted at
                # start_step but never emitted — refund them too (they
                # will be re-counted where the sequences re-decode),
                # mirroring the busy_ms refund above.
                inst.busy_ms -= inst.busy_until - now
                inst.busy_until = now
                inst.epoch += 1
                inst.tokens -= len(inst.step_done)
                decoding_ids = {id(s) for s in inst.step_done}
            inst.step_done = ()
            for seq in inst.active:
                retries[seq.req.rid] = retries.get(seq.req.rid, 0) + 1
                if seq.t_first <= now + _EPS:
                    # First token already delivered: resume decoding
                    # elsewhere after a KV re-prefill.  If the seq was
                    # a resume (re)admitted inside the aborted step —
                    # active but not part of its decode sweep — its
                    # re-prefill never completed: refund the count so
                    # the re-admission elsewhere doesn't double it.
                    if aborted_step and id(seq) not in decoding_ids:
                        inst.prefills -= 1
                    displaced.append(_Resume(seq))
                else:
                    # Still in prefill: nothing was delivered, so the
                    # request restarts from scratch.
                    inst.requests -= 1
                    inst.tokens -= 1  # the unemitted first token
                    inst.prefills -= 1
                    displaced.append(seq.req)
            inst.active = []
            depth -= len(displaced)
            return displaced

        def restart(inst: _GenInst, entry, now: float) -> None:
            if inst.last_model is None:
                inst.last_model = entry.model
            start_step(inst, now)

        def shift(delta: int) -> int:
            nonlocal depth
            depth += delta
            return depth

        on_fail, on_recover = self._faults(
            arrivals, _P_FAULT, sample, pending, displace, restart, shift)

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "step":
                inst = payload[1]
                if payload[2] == inst.epoch:  # else aborted by a failure
                    finish_step(inst, now)
            elif kind == "fail":
                on_fail(payload, now)
            else:
                on_recover(payload, now)

        # Step completions (priority 0) pop ahead of arrivals at equal
        # timestamps; fault events (2) sort after them.
        self._drain_merged(arrivals, on_arrival, handle, _P_STEP)
        return result()

    # ------------------------------------------------------------------
    def _record_sink(self, retries: Dict[int, int]):
        """Full detail: the sample list and the records — all list
        appends."""
        from ..serving.generation import GenerationSimulationResult

        samples: List[Tuple[float, int]] = []
        records: list = []

        def result():
            makespan = max(map(_T_COMPLETE, records), default=0.0)
            records.sort(key=_BY_RID)
            return GenerationSimulationResult(
                records=records,
                instances=self._instance_stats(),
                slots=self.slots,
                makespan_ms=makespan,
                queue_samples=samples,
                total_preemptions=sum(i.preemptions for i in self.instances),
                **self._totals(makespan, retries),
            )

        return samples.append, records.append, result

    def _summary_sink(self, retries: Dict[int, int]):
        """Summary detail: fold records and depth samples as they fire.

        TTFT/TPOT/latency multisets are collected as sequences finish
        (percentiles stay exact); wait/token sums and the queue-depth
        integral are folded in as events fire.
        """
        from .summary import GenerationSummary

        ttfts: List[float] = []
        tpots: List[float] = []
        lats: List[float] = []
        out_list: List[int] = []
        req_tpots: List[float] = []
        wait_sum = 0.0
        total_tokens = 0
        makespan = 0.0
        sample, depth_totals = _depth_integral()

        def complete(record: tuple) -> None:
            nonlocal wait_sum, total_tokens, makespan
            _, _, _, _, out, t0, t_admit, t_first, done_ms, _, _, _ = record
            ttfts.append(t_first - t0)
            lats.append(done_ms - t0)
            wait_sum += t_admit - t0
            out_list.append(out)
            if out > 1:
                tp = (done_ms - t_first) / (out - 1)
                tpots.append(tp)
                req_tpots.append(tp)
            else:
                req_tpots.append(0.0)
            total_tokens += out
            if done_ms > makespan:
                makespan = done_ms

        def result():
            area, last_t, last_depth, _max_depth = depth_totals()
            return GenerationSummary(
                total_requests=len(lats),
                total_tokens=total_tokens,
                makespan_ms=makespan,
                slots=self.slots,
                ttfts=ttfts,
                tpots=tpots,
                lats=lats,
                wait_sum=wait_sum,
                out_tokens=out_list,
                req_tpots=req_tpots,
                instances=self._instance_stats(),
                depth_area=area,
                depth_last_t=last_t,
                depth_last=last_depth,
                total_preemptions=sum(i.preemptions for i in self.instances),
                **self._totals(makespan, retries),
            )

        return sample, complete, result

    def _instance_stats(self) -> list:
        from ..serving.generation import GenerationInstanceStats

        return [
            GenerationInstanceStats(
                index=i.idx, requests=i.requests, steps=i.steps,
                prefills=i.prefills, tokens=i.tokens, busy_ms=i.busy_ms,
                switch_count=i.switch_count,
                reprogram_time_ms=i.reprogram_time_ms,
                preemptions=i.preemptions, failures=i.failures,
                downtime_ms=i.downtime_ms,
            ) for i in self.instances
        ]
