"""Seed-determinism property tests over randomized configurations.

Stdlib-``random``-driven (no extra deps): each trial draws a workload
shape, scheduler, batching policy, and fleet layout from a seeded
meta-RNG, then checks the kernel's determinism contract —

* same seed → byte-identical traces, records, and reports;
* different workload seeds → distinct event streams;
* arrival times are sorted and non-negative for every generator;
* sampled lengths always respect the sampler's ``[lo, hi]`` bounds.
"""

import random

import pytest

from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    attach_priorities,
    fixed_size,
    no_batching,
    summarize,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.sim import FailurePlan, FleetSpec, InstanceSpec

from .._events import run_events

MODELS = ["model2-lhc-trigger", "model1-peng-isqed21", "model3-efa-trans"]


def _random_mix(rng: random.Random) -> ModelMix:
    names = rng.sample(MODELS, rng.randint(1, len(MODELS)))
    return ModelMix({n: rng.uniform(0.5, 4.0) for n in names})


def _random_arrivals(rng: random.Random, seed: int):
    mix = _random_mix(rng)
    kind = rng.choice(["poisson", "bursty", "diurnal"])
    if kind == "poisson":
        return PoissonArrivals(rng.uniform(100, 800), mix, seed=seed)
    if kind == "bursty":
        return BurstyArrivals(rng.uniform(100, 600), mix, seed=seed,
                              burst_factor=rng.uniform(1.0, 6.0),
                              burst_fraction=rng.uniform(0.05, 0.5),
                              dwell_ms=rng.uniform(20.0, 300.0))
    return DiurnalArrivals(rng.uniform(200, 900), mix, seed=seed,
                           period_ms=rng.uniform(200.0, 1200.0),
                           floor=rng.uniform(0.0, 1.0))


def _random_batching(rng: random.Random):
    return rng.choice([
        no_batching(),
        fixed_size(rng.randint(2, 8)),
        timeout(rng.randint(2, 8), rng.uniform(0.5, 4.0)),
    ])


def _random_fleet(rng: random.Random, generation: bool = False
                  ) -> FleetSpec:
    specs = []
    for _ in range(rng.randint(1, 4)):
        models = (tuple(rng.sample(MODELS, rng.randint(1, len(MODELS))))
                  if rng.random() < 0.3 else None)
        specs.append(InstanceSpec(
            speed=rng.choice([0.5, 1.0, 1.0, 2.0]),
            models=models,
            # Per-instance slots are a generation-mode knob only.
            slots=(rng.choice([None, rng.randint(1, 6)])
                   if generation else None)))
    # Every model must stay servable somewhere.
    if all(s.models is not None for s in specs):
        specs.append(InstanceSpec())
    return FleetSpec(tuple(specs))


@pytest.mark.parametrize("trial", range(8))
def test_serve_same_seed_identical_different_seed_distinct(
        default_accel, trial):
    meta = random.Random(1000 + trial)
    seed = meta.randint(0, 10_000)
    shape_seed = meta.randint(0, 1 << 30)
    duration = meta.uniform(200.0, 600.0)
    scheduler = meta.choice(["round-robin", "least-loaded",
                             "model-affinity"])
    batching = _random_batching(meta)
    fleet = _random_fleet(meta)
    failures = (FailurePlan(meta.uniform(100, 400), meta.uniform(5, 50),
                            seed=seed)
                if meta.random() < 0.5 else None)

    def run(wseed):
        # Same generator *shape* every call (shape_seed replays the
        # construction draws); only the workload seed varies.
        requests = _random_arrivals(
            random.Random(shape_seed), wseed).generate(duration)
        sim = ClusterSimulator(
            default_accel, fleet=fleet, scheduler=scheduler,
            batching=batching, reprogram_latency_ms=2.0,
            failures=failures)
        return (requests, *run_events(sim.run, requests))

    reqs_a, a, events_a = run(seed)
    reqs_b, b, events_b = run(seed)
    assert reqs_a == reqs_b
    assert events_a == events_b
    assert a.records == b.records
    assert summarize(a) == summarize(b)

    # A different workload seed must change the event stream (the
    # arrival draws differ; requiring identical traces would only hold
    # by coincidence on an empty workload).
    _, _, events_c = run(seed + 17)
    if reqs_a:
        assert events_c != events_a


@pytest.mark.parametrize("trial", range(6))
def test_generate_same_seed_identical(default_accel, trial):
    meta = random.Random(2000 + trial)
    seed = meta.randint(0, 10_000)
    mix = _random_mix(meta)
    qps = meta.uniform(10, 50)
    duration = meta.uniform(150.0, 450.0)
    slots = meta.randint(1, 6)
    prompt = LengthSampler("uniform", meta.randint(1, 8),
                           meta.randint(8, 32))
    output = LengthSampler("geometric", meta.randint(1, 4),
                           meta.randint(16, 64),
                           mean_extra=meta.uniform(0.0, 12.0))
    priority_frac = meta.choice([0.0, 0.2, 0.5])
    failures = (FailurePlan(meta.uniform(80, 300), meta.uniform(5, 40),
                            seed=seed)
                if meta.random() < 0.5 else None)
    n_instances = meta.randint(1, 3)

    def run():
        arrivals = PoissonArrivals(qps, mix, seed=seed).generate(duration)
        requests = attach_generation_lengths(
            arrivals, prompt, output, seed=seed,
            max_total=default_accel.synth.max_seq_len)
        requests = attach_priorities(requests, priority_frac, seed=seed)
        sim = GenerationClusterSimulator(
            default_accel, n_instances, slots=slots,
            scheduler="least-loaded", failures=failures)
        return run_events(sim.run, requests)

    (a, events_a), (b, events_b) = run(), run()
    assert events_a == events_b
    assert a.records == b.records
    assert a.instances == b.instances


@pytest.mark.parametrize("trial", range(10))
def test_arrival_times_monotone_and_nonnegative(trial):
    meta = random.Random(3000 + trial)
    requests = _random_arrivals(meta, meta.randint(0, 99)).generate(
        meta.uniform(100.0, 2000.0))
    times = [r.t_ms for r in requests]
    assert times == sorted(times)
    assert all(t >= 0 for t in times)
    assert [r.rid for r in requests] == list(range(len(requests)))


@pytest.mark.parametrize("trial", range(10))
def test_sampled_lengths_within_bounds(trial):
    meta = random.Random(4000 + trial)
    lo = meta.randint(1, 16)
    hi = lo + meta.randint(0, 48)  # zero-width ranges included
    kind = meta.choice(["fixed", "uniform", "geometric"])
    sampler = LengthSampler(kind, lo, hi,
                            mean_extra=meta.uniform(0.0, 20.0))
    rng = random.Random(meta.randint(0, 99))
    draws = [sampler.sample(rng) for _ in range(300)]
    assert all(lo <= d <= max(lo, hi) for d in draws), (kind, lo, hi)
    # Replaying the same draw seed reproduces the sequence exactly.
    replay = random.Random(7), random.Random(7)
    a = [sampler.sample(replay[0]) for _ in range(20)]
    b = [sampler.sample(replay[1]) for _ in range(20)]
    assert a == b
