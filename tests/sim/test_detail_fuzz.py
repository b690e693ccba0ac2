"""Randomized differential tests: every execution mode of one scenario
agrees with every other.

Both engines run each generated scenario six ways — full and summary
detail, each bare, observed and profiled — and the results must agree:

* **full vs summary**: every percentile and count of the reduced report
  is bit-identical; means (summed in completion order instead of rid
  order) lie within ``n * 2**-52 * |mean|`` of each other;
* **observed == bare**: at each detail level an observer leaves the
  trace bytes and the report unchanged, and it sees the same event
  stream at both levels;
* **profiled == bare**: a profiler leaves the result unchanged, and it
  counts the same events per kind at both levels;
* **conservation** (:func:`_check_conservation`, the same helper for
  both engines): every request completes exactly once, retries are
  counted on records rather than duplicated, per-instance request
  counts sum to the report total, no instance is busy longer than the
  makespan, availability lies in [0, 1] on failure runs, and no
  queue-depth sample is negative;
* **no cycles** (:func:`tests.sim.test_gc_pause.acyclic`): each run
  leaves nothing for the cyclic garbage collector to free and leaves it
  on or off as it found it — the invariant the engines' collector pause
  rests on.

Scenarios draw 1-3 models, fleets of 1-6 instances (with speeds and
capability sets mixed in), every stock scheduler, no / fixed / timeout
batching with and without check jitter (serve), priorities (generate),
failure injection on and off, and empty workloads.  ``derandomize``
pins the examples, so the suite runs the same cases every time.
"""

import dataclasses
import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import KernelProfiler, MetricsSampler, Watchdog, compose
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    no_batching,
    summarize,
    summarize_generation,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.sim.failures import FailurePlan
from repro.sim.fleet import FleetSpec, InstanceSpec

from .test_gc_pause import acyclic

MODELS = ("model2-lhc-trigger", "model1-peng-isqed21", "model3-efa-trans")
SCHEDULERS = ("round-robin", "least-loaded", "model-affinity")
#: Report fields summed in completion order at summary detail.
MEANS = frozenset({"mean_latency_ms", "mean_wait_ms", "mean_ttft_ms",
                   "mean_tpot_ms"})
FUZZ = settings(derandomize=True, deadline=None, max_examples=50,
                database=None)


@st.composite
def fleets(draw, n_models):
    """A fleet whose capability sets still cover every model."""
    models = MODELS[:n_models]
    specs = []
    for _ in range(draw(st.integers(1, 6))):
        caps = draw(st.none() | st.lists(st.sampled_from(models),
                                         min_size=1, unique=True))
        specs.append(InstanceSpec(
            speed=draw(st.sampled_from((0.5, 1.0, 1.0, 2.0))),
            models=tuple(caps) if caps else None))
    covered = {m for s in specs for m in (s.models or models)}
    if covered != set(models):
        specs[0] = dataclasses.replace(specs[0], models=None)
    return FleetSpec(tuple(specs))


@st.composite
def common(draw):
    n_models = draw(st.integers(1, 3))
    weights = {m: float(draw(st.integers(1, 3)))
               for m in MODELS[:n_models]}
    plan = None
    if draw(st.booleans()):
        plan = FailurePlan(mtbf_ms=draw(st.sampled_from((40.0, 150.0))),
                           mttr_ms=draw(st.sampled_from((0.0, 10.0, 30.0))),
                           seed=draw(st.integers(0, 9)))
    return dict(mix=ModelMix(weights), fleet=draw(fleets(n_models)),
                scheduler=draw(st.sampled_from(SCHEDULERS)),
                failures=plan, seed=draw(st.integers(0, 10 ** 6)))


def _same(a, b) -> bool:
    """Exact equality, with NaN equal to NaN."""
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _check_fields(full, summ, n, where=""):
    for name in full.__dataclass_fields__:
        a, b = getattr(full, name), getattr(summ, name)
        if name == "per_model":
            assert a.keys() == b.keys()
            for model in a:
                _check_fields(a[model], b[model], a[model].count,
                              f"{model}.")
        elif name in MEANS and isinstance(a, float) and not math.isnan(a):
            bound = n * 2.0 ** -52 * abs(a)
            assert abs(b - a) <= bound, (
                f"{where}{name}: full={a!r} summary={b!r} (n={n})")
        else:
            assert _same(a, b), f"{where}{name}: full={a!r} summary={b!r}"


def _check_conservation(sim, requests, full, summ, total):
    """Invariants of the fleet substrate, whatever the workload class.

    ``full``/``summ`` are the bare full- and summary-detail results and
    ``total`` the report's request count.
    """
    rids = [r.rid for r in full.records]
    assert sorted(rids) == sorted(q.rid for q in requests)
    assert len(set(rids)) == len(rids)
    assert full.total_retries == sum(r.retries for r in full.records)
    assert summ.total_retries == full.total_retries
    for run in (full, summ):
        assert run.total_requests == total == len(requests)
        assert sum(i.requests for i in run.instances) == total
        for inst in run.instances:
            assert 0.0 <= inst.busy_ms <= run.makespan_ms, (
                f"instance {inst.index} busy {inst.busy_ms!r} ms over a "
                f"{run.makespan_ms!r} ms makespan")
        if sim.failures is None:
            assert run.availability is None
        else:
            assert 0.0 <= run.availability <= 1.0
    assert all(depth >= 0 for _, depth in full.queue_samples)
    assert summ.depth_last >= 0


def _observer(events):
    """A list tap plus the obs stack the CLI attaches."""
    return compose(events.append, MetricsSampler(grid_ms=10.0),
                   Watchdog(slo_ms=20.0))


def _check_modes(sim, requests, report):
    """Run six ways and cross-check (see the module docstring)."""
    def run(**kwargs):
        return acyclic(sim.run, requests, **kwargs)

    full = run()
    summ = run(detail="summary")
    rep_full = report(full)
    _check_fields(rep_full, report(summ), rep_full.total_requests)
    _check_conservation(sim, requests, full, summ, rep_full.total_requests)

    seen_full, seen_summ = [], []
    observed = run(observer=_observer(seen_full))
    assert observed.trace == full.trace
    assert observed.records == full.records
    assert observed.queue_samples == full.queue_samples
    assert report(observed) == rep_full
    observed_s = run(observer=_observer(seen_summ), detail="summary")
    assert observed_s == summ
    assert seen_summ == seen_full
    assert [e for e in seen_full if e[0] != "requeue"] == full.trace

    prof_full, prof_summ = KernelProfiler(), KernelProfiler()
    profiled = run(profiler=prof_full)
    assert profiled.trace == full.trace
    assert profiled.records == full.records
    assert report(profiled) == rep_full
    assert run(profiler=prof_summ, detail="summary") == summ
    assert prof_summ.counts == prof_full.counts
    assert prof_full.counts.get("arrival", 0) == len(requests)


@FUZZ
@given(common(),
       st.sampled_from(("none", "fixed", "timeout")),
       st.integers(2, 6),
       st.sampled_from((0.0, 0.7)),
       st.sampled_from((1500.0, 400.0, 4000.0, 0.0)))
def test_serve_modes_agree(default_accel, scenario, batch, size, jitter,
                           qps):
    policy = {"none": no_batching(), "fixed": fixed_size(size),
              "timeout": timeout(size, 1.5)}[batch]
    requests = ([] if qps == 0.0 else PoissonArrivals(
        qps, scenario["mix"], seed=scenario["seed"]).generate(150.0))
    sim = ClusterSimulator(
        default_accel, fleet=scenario["fleet"],
        scheduler=scenario["scheduler"], batching=policy,
        reprogram_latency_ms=1.0, check_jitter_ms=jitter,
        failures=scenario["failures"])
    _check_modes(sim, requests, lambda r: summarize(r, slo_ms=5.0))


@FUZZ
@given(common(),
       st.integers(1, 4),
       st.sampled_from((0.3, None, 0.0)),
       st.sampled_from((300.0, 100.0, 0.0)))
def test_generate_modes_agree(default_accel, scenario, slots, priority,
                              qps):
    arrivals = ([] if qps == 0.0 else PoissonArrivals(
        qps, scenario["mix"], seed=scenario["seed"]).generate(150.0))
    requests = attach_generation_lengths(
        arrivals, LengthSampler("uniform", 4, 16),
        LengthSampler("geometric", 1, 12, mean_extra=4.0),
        seed=scenario["seed"], max_total=default_accel.synth.max_seq_len)
    if priority:
        rng = random.Random(scenario["seed"])
        requests = [dataclasses.replace(
            r, priority=rng.choice((1, 2)) if rng.random() < priority
            else 0) for r in requests]
    sim = GenerationClusterSimulator(
        default_accel, slots=slots, fleet=scenario["fleet"],
        scheduler=scenario["scheduler"], reprogram_latency_ms=1.0,
        failures=scenario["failures"],
        preemption=None if priority is None else bool(priority))
    _check_modes(sim, requests, lambda r: summarize_generation(
        r, ttft_slo_ms=20.0, tpot_slo_ms=2.0))
