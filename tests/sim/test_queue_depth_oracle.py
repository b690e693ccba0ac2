"""Queue-depth oracle for the generation engine's running depth counter.

The generation engine samples its queue depth — waiting plus in-flight
sequences over every instance, plus requests parked while no capable
instance is up — at every arrival, step start and step end.  The
samples come from a running counter updated where work enters or
leaves the fleet, not from a per-sample sum over the instances.  This
suite pins that counter to digests frozen from the sum on ~40 seeded
random scenarios spanning:

* fleets of 1-32 instances, including heterogeneous speed / slot /
  capability specs;
* 1-8 sequence slots;
* priority admission (with preemption) on and off;
* ``FailurePlan`` fault injection on and off, including faults in the
  middle of a prefill and work parked while every capable instance is
  down.

Both drains are checked: ``detail="full"`` against the digest of its
``queue_samples`` list, ``detail="summary"`` against the exact
``depth_area`` / ``depth_last_t`` / ``depth_last`` integral state.
"""

import random

import pytest

from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    attach_priorities,
)
from repro.serving.generation import GenerationClusterSimulator
from repro.sim import FailurePlan, FleetSpec, InstanceSpec

from .._events import run_events
from .._goldens import load, sha256

N_SCENARIOS = 40

MODELS = ("model2-lhc-trigger", "model1-peng-isqed21")
MIX = ModelMix({MODELS[0]: 3.0, MODELS[1]: 1.0})


def _fleet(rng: random.Random, n: int, hetero: bool):
    if not hetero:
        return FleetSpec.uniform(n)
    specs = [InstanceSpec(speed=rng.choice((0.5, 1.0, 2.0)),
                          slots=rng.choice((None, 1, 3)))]
    for _ in range(n - 1):
        # Pinned instances make parking likely under faults: a model
        # with few capable instances loses all of them more often.
        models = rng.choice((None, (MODELS[0],), (MODELS[1],)))
        specs.append(InstanceSpec(speed=rng.choice((0.5, 1.0, 2.0)),
                                  slots=rng.choice((None, 2, 5)),
                                  models=models))
    return FleetSpec(tuple(specs))


def scenario(index: int, accel):
    """(simulator, requests) of oracle scenario ``index`` (seeded)."""
    rng = random.Random(7919 * index + 1)
    failing = index % 2 == 1
    priority = (index // 2) % 2 == 1
    hetero = index % 5 == 4
    n = rng.choice((1, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32))
    slots = rng.randint(1, 8)
    qps = rng.uniform(8.0, 45.0) * max(n, 2)
    arrivals = PoissonArrivals(qps, MIX, seed=index).generate(
        rng.uniform(150.0, 400.0))
    requests = attach_generation_lengths(
        arrivals, LengthSampler("uniform", 2, 24),
        LengthSampler("geometric", 1, 24, mean_extra=5.0),
        seed=index, max_total=accel.synth.max_seq_len)
    if priority:
        requests = attach_priorities(requests, rng.choice((0.1, 0.3, 0.5)),
                                     seed=index)
    failures = (FailurePlan(mtbf_ms=rng.uniform(30.0, 150.0),
                            mttr_ms=rng.uniform(2.0, 40.0), seed=index)
                if failing else None)
    sim = GenerationClusterSimulator(
        accel, fleet=_fleet(rng, n, hetero), slots=slots,
        scheduler=rng.choice(("least-loaded", "round-robin",
                              "model-affinity")),
        reprogram_latency_ms=rng.choice((0.0, 2.0)), failures=failures)
    return sim, requests


def depth_digest(full, summary) -> dict:
    """The frozen record of one scenario's queue-depth trajectory."""
    return {
        "samples": len(full.queue_samples),
        "samples_sha256": sha256(";".join(
            f"{t!r},{d}" for t, d in full.queue_samples)),
        "max_queue_depth": max((d for _, d in full.queue_samples),
                               default=0),
        "depth_area": summary.depth_area,
        "depth_last_t": summary.depth_last_t,
        "depth_last": summary.depth_last,
    }


@pytest.fixture(scope="module")
def runs(default_accel):
    out = {}
    for index in range(N_SCENARIOS):
        sim, requests = scenario(index, default_accel)
        full, events = run_events(sim.run, requests)
        out[index] = (full, sim.run(requests, detail="summary"), events)
    return out


@pytest.fixture(scope="module")
def golden(runs):
    return load("gen_queue_depth.json", lambda: {
        str(i): depth_digest(*runs[i][:2]) for i in sorted(runs)})


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_depth_matches_frozen_digest(runs, golden, index):
    full, summary, _ = runs[index]
    assert depth_digest(full, summary) == golden[str(index)]


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_depth_never_negative_and_drains_to_zero(runs, index):
    full, summary, _ = runs[index]
    samples = full.queue_samples
    assert samples, "scenario recorded no queue-depth samples"
    assert min(d for _, d in samples) >= 0
    assert samples[-1][1] == 0
    assert summary.depth_last == 0


def test_scenarios_cover_the_named_regimes(runs):
    """The seeds really exercise what the module docstring promises."""
    fleets, slots, parked, mid_prefill, preempted = set(), set(), 0, 0, 0
    for full, _, events in runs.values():
        fleets.add(full.n_instances)
        slots.add(full.slots)
        preempted += full.total_preemptions
        running = {}  # instance -> (step end, admitted any)
        for event in events:
            kind = event[0]
            if kind == "arrive" and event[4] == -1:
                parked += 1
            elif kind == "step":
                _, t, inst, _, admitted, _, duration = event
                running[inst] = (t + duration, admitted > 0)
            elif kind == "fail":
                end, admitted = running.get(event[2], (0.0, False))
                if admitted and end > event[1]:
                    mid_prefill += 1
    assert min(fleets) == 1 and max(fleets) >= 24
    assert min(slots) <= 2 and max(slots) >= 7
    assert parked > 0, "no scenario parked work with every instance down"
    assert mid_prefill > 0, "no scenario faulted an instance mid-prefill"
    assert preempted > 0, "no scenario preempted a sequence"
