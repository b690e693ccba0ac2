"""The inlined summary drain against the shared per-event handlers.

``ServeEngine.run`` sends a summary run with stock batching (with or
without a timeout), no failures, an unrestricted fleet and nothing
attached to the inlined drain ``_run_fast``.  A ``BatchingPolicy``
subclass keeps the stock semantics but makes the engine call
``decide()``, which sends the same run through the shared handlers.
The two summaries must be equal field by field, the two engines must
push the same events in the same order (the push order breaks ties
between events at one time and priority, which a summary may not
show), and they must end at the same simulated time.

Workloads mix up to three models (``model1-peng-isqed21`` and
``ftrans-workload`` cost the same but differ by name, so they switch),
arrive on a coarse grid (equal timestamps, and arrivals exactly on
timeout deadlines) or anywhere, and then gain arrivals placed at and
within 1e-10 ms of the completions and deadlines of the run built so
far.  Placements go in increasing time, so each one lands on an event
of the final run.
"""

from dataclasses import fields

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import BatchingPolicy, fixed_size, no_batching, timeout
from repro.serving.cluster import ClusterSimulator
from repro.serving.scheduler import SCHEDULERS
from repro.serving.workload import Request
from repro.sim.kernel import EventQueue
from repro.sim.serve import ServeEngine

MODELS = ("model2-lhc-trigger", "model1-peng-isqed21", "ftrans-workload")
OFFSETS = (-1e-10, 0.0, 1e-10)


class _Decided(BatchingPolicy):
    """Stock batching reached through ``decide()``: the shared handlers."""


def _decided(policy: BatchingPolicy) -> BatchingPolicy:
    return _Decided(name=policy.name, max_batch=policy.max_batch,
                    timeout_ms=policy.timeout_ms)


POLICIES = st.one_of(
    st.just(no_batching()),
    st.integers(1, 6).map(fixed_size),
    st.builds(timeout, st.integers(1, 6),
              st.sampled_from((0.0, 0.25, 0.5, 2.0))
              | st.floats(0.0, 5.0, allow_nan=False)),
)
TIMES = (st.integers(0, 40).map(lambda k: k * 0.25)
         | st.floats(0.0, 10.0, allow_nan=False))


@st.composite
def scenarios(draw):
    models = MODELS[:draw(st.integers(1, len(MODELS)))]
    model = st.sampled_from(models)
    return dict(
        n=draw(st.integers(1, 5)),
        scheduler=draw(st.sampled_from(sorted(SCHEDULERS))),
        policy=draw(POLICIES),
        reprogram_ms=draw(st.sampled_from((0.0, 1.5))
                          | st.floats(0.0, 3.0, allow_nan=False)),
        jitter_ms=draw(st.sampled_from((0.0, 0.3))
                       | st.floats(0.0, 2.0, allow_nan=False)),
        base=draw(st.lists(st.tuples(TIMES, model), min_size=1,
                           max_size=40)),
        marks=draw(st.lists(
            st.tuples(st.sampled_from(("complete", "deadline")),
                      st.integers(0, 10 ** 6), st.sampled_from(OFFSETS),
                      model),
            max_size=5)),
    )


def _sim(accel, sc, policy):
    return ClusterSimulator(
        accel, sc["n"], scheduler=sc["scheduler"], batching=policy,
        reprogram_latency_ms=sc["reprogram_ms"],
        check_jitter_ms=sc["jitter_ms"])


def _event_times(records, policy, jitter_ms):
    """Completions, plus the deadlines (true and jitter-early) a head
    of the queue could arm under a timeout policy."""
    times = [r.t_complete_ms for r in records]
    if policy.timeout_ms is not None:
        for r in records:
            deadline = r.t_arrival_ms + policy.timeout_ms
            times += [deadline, deadline - jitter_ms]
    return times


def _workload(accel, sc):
    reqs = [Request(rid=i, t_ms=t, model=m)
            for i, (t, m) in enumerate(sc["base"])]
    floor = -1.0
    for kind, pick, offset, model in sc["marks"]:
        records = _sim(accel, sc, sc["policy"]).run(reqs).records
        times = (_event_times(records, sc["policy"], sc["jitter_ms"])
                 if kind == "deadline" else
                 [r.t_complete_ms for r in records])
        later = sorted(t for t in times if t > floor)
        if not later:
            break
        t = later[pick % len(later)] + offset
        reqs.append(Request(rid=len(reqs), t_ms=max(t, 0.0), model=model))
        floor = t + 1e-9
    return reqs


class _LoggedQueue(EventQueue):
    """An event queue that logs every push as ``(t, priority, kind,
    instance)``."""

    __slots__ = ("log",)

    def __init__(self):
        super().__init__()
        self.log = []

    def push(self, t_ms, priority, payload):
        self.log.append((t_ms, priority, payload[0], payload[1].idx))
        super().push(t_ms, priority, payload)


def _summary(accel, sc, policy, reqs):
    sim = _sim(accel, sc, policy)
    engine = sim._engine(sim.fleet)
    engine.queue = _LoggedQueue()
    return engine, engine.run(reqs, detail="summary")


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(sc=scenarios())
def test_fast_drain_matches_shared_handlers(default_accel, sc):
    reqs = _workload(default_accel, sc)
    fast_engine, fast = _summary(default_accel, sc, sc["policy"], reqs)
    slow_engine, slow = _summary(default_accel, sc, _decided(sc["policy"]),
                                 reqs)
    assert fast.total_requests == len(reqs)
    for f in fields(fast):
        assert getattr(fast, f.name) == getattr(slow, f.name), f.name
    assert fast_engine.queue.log == slow_engine.queue.log
    assert fast_engine.now_ms == slow_engine.now_ms


def _eps_scenario(accel, case):
    """Two instances, least-loaded, one model.  ``arrival``: two
    arrivals land 1e-10 ms before instance 0 completes; the first joins
    it and must arm its deadline check at once, before the second arms
    instance 1's.  ``check``: instance 0's stale check pops 5e-10 ms
    before its batch completes and must re-arm for the new head, before
    instance 1's check dispatches."""
    model = MODELS[0]
    if case == "arrival":
        policy = timeout(4, 2.0)
        reqs = [Request(rid=0, t_ms=0.0, model=model)]
        sim = ClusterSimulator(accel, 2, batching=policy)
        t = sim.run(reqs).records[0].t_complete_ms - 1e-10
        reqs += [Request(rid=1, t_ms=t, model=model),
                 Request(rid=2, t_ms=t, model=model)]
    else:
        policy = timeout(2, 2.0)
        s2 = ClusterSimulator(accel, 1).service.batch_service_ms(model, 2)
        t = 2.0 + 5e-10 - s2
        assert 2.0 < t + s2 <= 2.0 + 1e-9
        reqs = [Request(rid=0, t_ms=0.0, model=model),
                Request(rid=1, t_ms=0.0, model=model),
                Request(rid=2, t_ms=t, model=model),
                Request(rid=3, t_ms=1.0, model=model)]
        reqs.sort(key=lambda r: r.t_ms)
    return dict(n=2, scheduler="least-loaded", policy=policy,
                reprogram_ms=0.0, jitter_ms=0.0), reqs


@pytest.mark.parametrize("case", ("arrival", "check"))
def test_completion_within_eps_still_arms_the_check(default_accel, case):
    """``try_dispatch`` arms a deadline check before it looks for a
    batch in flight, so a completion inside ``_EPS`` does not delay
    the arming; only the push order shows it."""
    sc, reqs = _eps_scenario(default_accel, case)
    fast_engine, fast = _summary(default_accel, sc, sc["policy"], reqs)
    slow_engine, slow = _summary(default_accel, sc, _decided(sc["policy"]),
                                 reqs)
    assert fast == slow
    log = slow_engine.queue.log
    assert fast_engine.queue.log == log
    if case == "arrival":
        t = reqs[-1].t_ms
        assert log[2:4] == [(t + 2.0, 2, "check", 0), (t + 2.0, 2, "check", 1)]
    else:
        assert [e[2:] for e in log[-3:-1]] == [("check", 0), ("free", 1)]


def test_time_ends_at_a_stale_check(default_accel):
    """A batch that fills before its head's deadline leaves the check
    armed for that deadline; it pops after the last completion, and the
    run ends there, on both drains."""
    sc = dict(n=1, scheduler="least-loaded", policy=timeout(2, 5.0),
              reprogram_ms=0.0, jitter_ms=0.0)
    reqs = [Request(rid=0, t_ms=0.0, model=MODELS[0]),
            Request(rid=1, t_ms=0.1, model=MODELS[0])]
    for policy in (sc["policy"], _decided(sc["policy"])):
        engine, summary = _summary(default_accel, sc, policy, reqs)
        assert summary.makespan_ms < 5.0
        assert engine.now_ms == 5.0


def test_stock_policies_take_the_fast_drain(default_accel, monkeypatch):
    """The differential above compares two drains, not one drain twice:
    stock batching, timeout included, reaches ``_run_fast``, and the
    ``decide()`` subclass does not."""
    calls = []
    inner = ServeEngine._run_fast

    def spy(self, arrivals, index):
        calls.append(self.batching.name)
        return inner(self, arrivals, index)

    monkeypatch.setattr(ServeEngine, "_run_fast", spy)
    reqs = [Request(rid=i, t_ms=0.5 * i, model=MODELS[0]) for i in range(8)]
    for policy in (no_batching(), fixed_size(4), timeout(4, 2.0)):
        for batching in (policy, _decided(policy)):
            ClusterSimulator(default_accel, 2, batching=batching).run(
                reqs, detail="summary")
    assert calls == ["none", "fixed-4", "timeout-4@2ms"]


@pytest.mark.parametrize("policy", (fixed_size(2), timeout(2, 1.0)),
                         ids=("fixed", "timeout"))
def test_reused_round_robin_continues_its_rotation(default_accel, policy):
    """A round-robin scheduler object passed to a simulator serves every
    run; each run continues the rotation where the last one stopped, at
    either detail level."""
    from repro.serving import summarize
    from repro.serving.scheduler import RoundRobin

    reqs = [Request(rid=i, t_ms=0.3 * i, model=MODELS[0]) for i in range(7)]
    reports = {}
    for detail in ("full", "summary"):
        scheduler = RoundRobin()
        sim = ClusterSimulator(default_accel, 3, scheduler=scheduler,
                               batching=policy)
        reports[detail] = [summarize(sim.run(reqs, detail=detail))
                           for _ in range(2)]
        assert scheduler._next == 2 * len(reqs)
    assert reports["summary"] == reports["full"]
    assert reports["full"][0] != reports["full"][1]
