"""The pre-kernel closure loops, preserved as reference oracles.

Before the unified kernel, :mod:`repro.serving.cluster` and
:mod:`repro.serving.generation` each shipped a hand-rolled heap loop.
Both survive here — and only here — because two consumers still need
them:

* the trace-identity goldens (``tests/goldens/``) replay every seeded
  scenario through both engines and byte-compare the rendered reports;
* the kernel benchmarks measure the unified engines *against* these
  loops (``serving_kernel_speedup``, ``sim_kernel_scale_x``).

They are deliberately frozen: no fleets, no failures, no preemption,
no observability hooks.  Anything a reference loop cannot express it
refuses loudly, so a golden can never silently compare unlike runs.
The hot modules keep their public ``run_legacy`` methods as one-line
delegates into this shim — test support stays importable from where it
always lived without the dead loops riding along in the hot paths.

Both loops share :class:`_Loop`, the event-heap scaffold they used to
duplicate: a binary heap of ``(t_ms, priority, seq, payload)`` tuples
seeded with every arrival, plus the monotonically increasing insertion
sequence that makes same-time/same-priority events pop in push order —
the exact tuple contract the kernel's queues implement.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import islice
from typing import Deque, List, Optional, Sequence, Tuple

from ..core.runtime import RuntimeSession
from .workload import GenerationRequest, Request

__all__ = ["run_legacy_cluster", "run_legacy_generation"]

_EPS = 1e-9
# Event priorities at equal timestamps.  Serve: free an instance before
# new arrivals join, deadline checks last.  Generation: step boundaries
# resolve before the arrivals they might admit.
_P_FREE, _P_ARRIVAL, _P_CHECK = 0, 1, 2
_P_STEP = 0


class _Loop:
    """Event-heap scaffold shared by both reference loops."""

    __slots__ = ("heap", "seq", "trace", "samples")

    def __init__(self, requests: Sequence, arrival_priority: int) -> None:
        self.heap: List[tuple] = [
            (req.t_ms, arrival_priority, i, ("arrival", req))
            for i, req in enumerate(requests)
        ]
        heapq.heapify(self.heap)
        self.seq = len(self.heap)
        self.trace: List[tuple] = []
        self.samples: List[Tuple[float, int]] = []

    def push(self, t: float, prio: int, payload: tuple) -> None:
        heapq.heappush(self.heap, (t, prio, self.seq, payload))
        self.seq += 1

    def pop(self) -> tuple:
        return heapq.heappop(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)


# ----------------------------------------------------------------------
# Serve (request-level batching)
# ----------------------------------------------------------------------

class _Instance:
    """Mutable per-instance state (scheduler-visible via InstanceView)."""

    def __init__(self, idx: int, session: RuntimeSession):
        self.idx = idx
        self.session = session
        self.queue: Deque[Request] = deque()
        self.busy_until = 0.0
        self.last_model: Optional[str] = None
        self.requests = 0
        self.batches = 0
        self.busy_ms = 0.0
        self.pending_check = False

    def backlog(self, now_ms: float) -> int:
        """Queued requests plus the one in service, if any."""
        return len(self.queue) + (1 if self.busy_until > now_ms + _EPS
                                  else 0)

    def stats(self):
        from .cluster import InstanceStats

        return InstanceStats(
            index=self.idx,
            requests=self.requests,
            batches=self.batches,
            busy_ms=self.busy_ms,
            reprogram_count=self.session.reprogram_count,
            switch_count=self.session.switch_count,
            reprogram_time_ms=self.session.reprogram_time_ms,
        )


def run_legacy_cluster(sim, requests: Sequence[Request]):
    """The pre-kernel serve loop (see :meth:`ClusterSimulator.run_legacy`).

    ``sim`` is the :class:`~repro.serving.cluster.ClusterSimulator`
    whose configuration (batching policy, service model, reprogramming
    penalty) the loop replays.
    """
    from .cluster import RequestRecord, SimulationResult

    if not sim.fleet.homogeneous:
        raise ValueError(
            "run_legacy cannot simulate a heterogeneous fleet — "
            "use run() (the kernel engine)")
    if sim.failures is not None:
        raise ValueError(
            "run_legacy cannot inject failures — use run() (the "
            "kernel engine)")
    scheduler = sim._scheduler()
    instances = [
        _Instance(i, RuntimeSession(
            sim.accel, reprogram_latency_ms=sim.reprogram_latency_ms))
        for i in range(sim.n_instances)
    ]
    records: List = []
    loop = _Loop(requests, _P_ARRIVAL)
    trace = loop.trace
    samples = loop.samples

    def sample(now: float) -> None:
        samples.append((now, sum(len(i.queue) for i in instances)))

    def try_dispatch(inst: _Instance, now: float) -> None:
        if inst.busy_until > now + _EPS or not inst.queue:
            return
        model = inst.queue[0].model
        # Scan at most max_batch entries: decide() clamps there, so
        # a deep backlog must not make dispatch O(queue length).
        prefix = 0
        for req in islice(inst.queue, sim.batching.max_batch):
            if req.model != model:
                break
            prefix += 1
        size = sim.batching.decide(prefix, now - inst.queue[0].t_ms)
        if size is None:
            if not inst.pending_check:
                assert sim.batching.timeout_ms is not None
                deadline = inst.queue[0].t_ms + sim.batching.timeout_ms
                # Optionally wake early (jitter study); once inside
                # the jitter window, arm the true deadline so the
                # early wakeup cannot respawn itself forever.
                target = deadline - sim.check_jitter_ms
                if target <= now + _EPS:
                    target = deadline
                loop.push(max(target, now), _P_CHECK, ("check", inst))
                inst.pending_check = True
            return
        batch = [inst.queue.popleft() for _ in range(size)]
        cfg = sim.service.config(model)
        switch_ms = inst.session.switch_cost_ms(cfg)
        inst.session.deploy(cfg)
        total_ms = switch_ms + sim.service.batch_service_ms(model, size)
        complete = now + total_ms
        inst.busy_until = complete
        inst.busy_ms += total_ms
        inst.batches += 1
        inst.requests += size
        records.extend(
            RequestRecord(
                rid=req.rid, model=model, instance=inst.idx,
                batch_size=size, t_arrival_ms=req.t_ms,
                t_dispatch_ms=now, t_complete_ms=complete,
            ) for req in batch
        )
        trace.append(("dispatch", now, inst.idx, model, size, switch_ms))
        loop.push(complete, _P_FREE, ("free", inst))
        sample(now)

    while loop:
        now, _prio, _seq, payload = loop.pop()
        kind = payload[0]
        if kind == "arrival":
            req: Request = payload[1]
            inst = scheduler.pick(instances, req, now)
            inst.queue.append(req)
            inst.last_model = req.model
            trace.append(("arrive", now, req.rid, req.model, inst.idx))
            sample(now)
            try_dispatch(inst, now)
        elif kind == "free":
            inst = payload[1]
            trace.append(("free", now, inst.idx))
            try_dispatch(inst, now)
        else:  # check
            # Deadline checks may be stale: the batch that armed
            # them can have dispatched long ago (dispatch does not
            # unschedule the event).  The guard is try_dispatch
            # itself — it re-derives busy state, queue head, and
            # head age from scratch, so a stale check either no-ops
            # (busy/empty), re-arms for the *current* head, or
            # dispatches exactly what the policy would dispatch
            # anyway.  No reprogram charge happens outside a real
            # dispatch, so stale events cannot double-charge.
            inst = payload[1]
            inst.pending_check = False
            try_dispatch(inst, now)

    makespan = max((r.t_complete_ms for r in records), default=0.0)
    records.sort(key=lambda r: r.rid)
    return SimulationResult(
        records=records,
        instances=[i.stats() for i in instances],
        n_instances=sim.n_instances,
        makespan_ms=makespan,
        queue_samples=samples,
        trace=trace,
        scheduler=scheduler.name,
        batching=sim.batching.name,
    )


# ----------------------------------------------------------------------
# Generation (token-level continuous batching)
# ----------------------------------------------------------------------

class _Sequence:
    """One in-flight request's decoding state."""

    __slots__ = ("req", "cached", "remaining", "t_admit", "t_first")

    def __init__(self, req: GenerationRequest, t_admit: float,
                 t_first: float):
        self.req = req
        #: KV-cache positions held (prompt + emitted tokens).
        self.cached = req.prompt_tokens
        #: Tokens still to emit after the prefill's first token.
        self.remaining = req.output_tokens - 1
        self.t_admit = t_admit
        self.t_first = t_first


class _GenInstance:
    """Mutable per-instance state (scheduler-visible via InstanceView)."""

    def __init__(self, idx: int, session: RuntimeSession):
        self.idx = idx
        self.session = session
        self.queue: Deque[GenerationRequest] = deque()
        self.active: List[_Sequence] = []
        self.busy_until = 0.0
        self.last_model: Optional[str] = None
        self.requests = 0
        self.steps = 0
        self.prefills = 0
        self.tokens = 0
        self.busy_ms = 0.0
        #: Sequences whose step-boundary bookkeeping is pending.
        self.step_done: List[Tuple[_Sequence, bool]] = []

    def backlog(self, now_ms: float) -> int:
        """Waiting plus in-flight sequences (scheduler load signal)."""
        return len(self.queue) + len(self.active)

    def stats(self):
        from .generation import GenerationInstanceStats

        return GenerationInstanceStats(
            index=self.idx,
            requests=self.requests,
            steps=self.steps,
            prefills=self.prefills,
            tokens=self.tokens,
            busy_ms=self.busy_ms,
            switch_count=self.session.switch_count,
            reprogram_time_ms=self.session.reprogram_time_ms,
        )


def run_legacy_generation(sim, requests: Sequence[GenerationRequest]):
    """The pre-kernel generation loop (see
    :meth:`GenerationClusterSimulator.run_legacy`)."""
    from .generation import GenerationRecord, GenerationSimulationResult

    if not sim.fleet.homogeneous:
        raise ValueError(
            "run_legacy cannot simulate a heterogeneous fleet — "
            "use run() (the kernel engine)")
    if sim.failures is not None:
        raise ValueError(
            "run_legacy cannot inject failures — use run() (the "
            "kernel engine)")
    sim._validate(requests)  # before touching .priority: a plain
    # Request workload must get the guided TypeError, not an
    # AttributeError from the priority scan below.
    if sim.preemption or any(r.priority for r in requests):
        raise ValueError(
            "run_legacy cannot preempt — use run() (the kernel "
            "engine) for priority workloads")
    scheduler = sim._scheduler()
    instances = [
        _GenInstance(i, RuntimeSession(
            sim.accel, reprogram_latency_ms=sim.reprogram_latency_ms))
        for i in range(sim.n_instances)
    ]
    records: List = []
    loop = _Loop(requests, _P_ARRIVAL)
    trace = loop.trace
    samples = loop.samples

    def sample(now: float) -> None:
        samples.append((now, sum(i.backlog(now) for i in instances)))

    def start_step(inst: _GenInstance, now: float) -> None:
        """Admit at the boundary, then run one engine step."""
        if inst.busy_until > now + _EPS:
            return
        # --- admissions: same-model joins while slots are free.
        admitted: List[GenerationRequest] = []
        while (inst.queue
               and len(inst.active) + len(admitted) < sim.slots):
            head = inst.queue[0]
            resident = (inst.active[0].req.model if inst.active
                        else admitted[0].model if admitted else None)
            if resident is not None and head.model != resident:
                break  # mixed weights cannot be resident together
            admitted.append(inst.queue.popleft())
        if not admitted and not inst.active:
            return
        model = admitted[0].model if admitted else inst.active[0].req.model
        cfg = sim.service.config(model)
        switch_ms = inst.session.switch_cost_ms(cfg)
        inst.session.deploy(cfg)
        inst.last_model = model

        # Decode sweep covers sequences active *before* this step;
        # the newly admitted prefill inside it and join the next one.
        decoding = list(inst.active)
        duration = switch_ms
        for req in admitted:
            prefill = sim.service.prefill_ms(model, req.prompt_tokens)
            duration += prefill
            seq = _Sequence(req, t_admit=now,
                            t_first=now + duration)
            inst.active.append(seq)
            inst.prefills += 1
            inst.requests += 1
            inst.tokens += 1  # the prefill's first token
            trace.append(("admit", now, inst.idx, req.rid,
                          req.prompt_tokens, req.output_tokens))
        if decoding:
            duration += sim.service.decode_step_ms(
                model, [s.cached + 1 for s in decoding])
        end = now + duration
        inst.busy_until = end
        inst.busy_ms += duration
        inst.steps += 1
        inst.step_done = [(s, True) for s in decoding]
        inst.tokens += len(decoding)
        trace.append(("step", now, inst.idx, model, len(admitted),
                      len(decoding), duration))
        loop.push(end, _P_STEP, ("step", inst))
        sample(now)

    def finish_step(inst: _GenInstance, now: float) -> None:
        """Step boundary: emit tokens, vacate finished sequences."""
        for seq, decoded in inst.step_done:
            if decoded:
                seq.cached += 1
                seq.remaining -= 1
        inst.step_done = []
        still: List[_Sequence] = []
        for seq in inst.active:
            if seq.remaining <= 0 and seq.t_first <= now + _EPS:
                req = seq.req
                complete = seq.t_first if req.output_tokens == 1 else now
                records.append(GenerationRecord(
                    rid=req.rid, model=req.model, instance=inst.idx,
                    prompt_tokens=req.prompt_tokens,
                    output_tokens=req.output_tokens,
                    t_arrival_ms=req.t_ms, t_admit_ms=seq.t_admit,
                    t_first_token_ms=seq.t_first,
                    t_complete_ms=complete))
                trace.append(("finish", now, inst.idx, req.rid))
            else:
                still.append(seq)
        inst.active = still
        sample(now)
        start_step(inst, now)

    while loop:
        now, _prio, _seq, payload = loop.pop()
        kind = payload[0]
        if kind == "arrival":
            req = payload[1]
            inst = scheduler.pick(instances, req, now)
            inst.queue.append(req)
            if inst.last_model is None:
                inst.last_model = req.model
            trace.append(("arrive", now, req.rid, req.model, inst.idx))
            sample(now)
            start_step(inst, now)
        else:  # step boundary
            finish_step(payload[1], now)

    makespan = max((r.t_complete_ms for r in records), default=0.0)
    records.sort(key=lambda r: r.rid)
    return GenerationSimulationResult(
        records=records,
        instances=[i.stats() for i in instances],
        n_instances=sim.n_instances,
        slots=sim.slots,
        makespan_ms=makespan,
        queue_samples=samples,
        trace=trace,
        scheduler=scheduler.name,
    )
