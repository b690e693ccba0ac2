"""Trace-identity goldens: the kernel engines against frozen outputs.

Six seeded scenarios (Poisson/bursty/diurnal x serve/generate) run
through the kernel engines.  Each run's event stream (collected by a
list observer, ``requeue`` events left out), ``queue_samples`` and
``instances`` must hash to the sha256 digests frozen in
``tests/goldens/trace_digests.json``, and its rendered report must
equal the committed golden under ``tests/goldens/`` — so the engine
cannot drift, and a diff shows up as a readable report diff.  The
digests were frozen while the pre-kernel closure loops still ran next
to the engines and agreed with them byte for byte on every case, so
they carry that oracle's check forward as data.  Two larger scenarios,
the shapes the kernel benchmarks time, are pinned by digest only.

Each scenario also runs bare and with the full observability stack
attached (trace recorder + metrics sampler + SLO watchdog + kernel
profiler): both must be byte-identical to the list-observed run, and
the stack must see the same event stream, pinning the ``repro.obs``
contract that observation never perturbs.
"""

import pytest

from repro.obs import (
    KernelProfiler,
    MetricsSampler,
    TraceRecorder,
    Watchdog,
    compose,
)
from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    render_generation_report,
    render_serving_report,
    summarize,
    summarize_generation,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator

from .._events import golden_events, run_events
from .._goldens import GOLDENS, load, sha256

MIX = ModelMix({
    "model2-lhc-trigger": 3.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})

#: scenario name -> arrival-process factory (fixed seeds: these define
#: the goldens).
SCENARIOS = {
    "poisson": lambda: PoissonArrivals(500, MIX, seed=101),
    "bursty": lambda: BurstyArrivals(400, MIX, seed=202,
                                     burst_factor=5.0, dwell_ms=80.0),
    "diurnal": lambda: DiurnalArrivals(600, MIX, seed=303,
                                       period_ms=600.0),
}
GEN_SCENARIOS = {
    "poisson": lambda: PoissonArrivals(30, MIX, seed=404),
    "bursty": lambda: BurstyArrivals(25, MIX, seed=505, dwell_ms=120.0),
    "diurnal": lambda: DiurnalArrivals(40, MIX, seed=606,
                                       period_ms=500.0),
}

#: The model mix of the kernel benchmarks (benchmarks/test_sim_kernel.py).
BENCH_MIX = ModelMix({
    "model2-lhc-trigger": 4.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})


def serve_sim(accel, failures=None):
    return ClusterSimulator(
        accel, 3, scheduler="model-affinity", batching=timeout(4, 2.0),
        reprogram_latency_ms=5.0, failures=failures)


def gen_sim(accel, failures=None):
    return GenerationClusterSimulator(
        accel, 2, slots=4, scheduler="least-loaded",
        reprogram_latency_ms=3.0, failures=failures)


def gen_requests(accel, arrivals):
    return attach_generation_lengths(
        arrivals, LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, 48, mean_extra=10.0),
        seed=77, max_total=accel.synth.max_seq_len)


def _serve_case(scenario):
    def make(accel):
        return serve_sim(accel), SCENARIOS[scenario]().generate(600.0)
    return make


def _gen_case(scenario):
    def make(accel):
        return gen_sim(accel), gen_requests(
            accel, GEN_SCENARIOS[scenario]().generate(500.0))
    return make


def _serve_kernel_bench(accel):
    sim = ClusterSimulator(accel, 8, scheduler="model-affinity",
                           batching=fixed_size(4), reprogram_latency_ms=5.0)
    return sim, PoissonArrivals(900, BENCH_MIX, seed=0).generate(11_500)


def _generate_kernel_bench(accel):
    requests = attach_generation_lengths(
        PoissonArrivals(40, BENCH_MIX, seed=1).generate(4_000),
        LengthSampler("fixed", 16), LengthSampler("fixed", 24),
        max_total=accel.synth.max_seq_len)
    sim = GenerationClusterSimulator(accel, 2, slots=8,
                                     scheduler="least-loaded")
    return sim, requests


#: case name -> ``accel -> (simulator, requests)``.
CASES = {
    **{f"serve_{s}": _serve_case(s) for s in SCENARIOS},
    **{f"generate_{s}": _gen_case(s) for s in GEN_SCENARIOS},
    "serve_kernel_bench": _serve_kernel_bench,
    "generate_kernel_bench": _generate_kernel_bench,
}


def trace_digest(result, events) -> dict:
    """The frozen summary of one run: sha256 of the repr of its event
    stream and of two result fields."""
    return {"trace": sha256(golden_events(events)),
            **{field: sha256(getattr(result, field))
               for field in ("queue_samples", "instances")}}


def case_digest(accel, name) -> dict:
    sim, requests = CASES[name](accel)
    return trace_digest(*run_events(sim.run, requests))


@pytest.fixture(scope="module")
def frozen(default_accel):
    return load("trace_digests.json", lambda: {
        name: case_digest(default_accel, name) for name in CASES})


def _check_golden(name: str, rendered: str) -> None:
    assert rendered == load(name, lambda: rendered), (
        f"rendered report diverged from golden {name}")


def _observe(sim, requests, kernel, events, slo_ms):
    """Re-run bare and with every observer attached: both byte-identical
    to ``kernel``, and the observers see its ``events``."""
    bare = sim.run(requests)
    tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=25.0)
    watchdog = Watchdog(slo_ms=slo_ms)
    observed, seen = run_events(
        sim.run, requests, observer=compose(tracer, sampler, watchdog),
        profiler=KernelProfiler())
    assert seen == events
    for run in (bare, observed):
        assert run.records == kernel.records
        assert run.queue_samples == kernel.queue_samples
        assert run.instances == kernel.instances
    assert tracer.events and sampler.registry.series
    assert watchdog.completions == len(observed.records)
    return observed


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_serve_trace_identity(default_accel, frozen, scenario):
    """serve: kernel run == frozen digest, observed == kernel, + golden."""
    name = f"serve_{scenario}"
    sim, requests = CASES[name](default_accel)
    assert requests, "scenario generated an empty workload"
    kernel, events = run_events(sim.run, requests)
    assert trace_digest(kernel, events) == frozen[name]
    observed = _observe(sim, requests, kernel, events, slo_ms=50.0)
    title = f"Golden: serve/{scenario}"
    rep_kernel = render_serving_report(summarize(kernel, slo_ms=50.0),
                                       title=title)
    rep_observed = render_serving_report(summarize(observed, slo_ms=50.0),
                                         title=title)
    assert rep_observed == rep_kernel
    _check_golden(f"{name}.txt", rep_kernel + "\n")


@pytest.mark.parametrize("scenario", sorted(GEN_SCENARIOS))
def test_generate_trace_identity(default_accel, frozen, scenario):
    """generate: kernel run == frozen digest, observed == kernel, + golden."""
    name = f"generate_{scenario}"
    sim, requests = CASES[name](default_accel)
    assert requests, "scenario generated an empty workload"
    kernel, events = run_events(sim.run, requests)
    assert trace_digest(kernel, events) == frozen[name]
    observed = _observe(sim, requests, kernel, events, slo_ms=40.0)
    title = f"Golden: generate/{scenario}"
    rep_kernel = render_generation_report(
        summarize_generation(kernel, ttft_slo_ms=40.0, tpot_slo_ms=2.0),
        title=title)
    rep_observed = render_generation_report(
        summarize_generation(observed, ttft_slo_ms=40.0, tpot_slo_ms=2.0),
        title=title)
    assert rep_observed == rep_kernel
    _check_golden(f"{name}.txt", rep_kernel + "\n")


@pytest.mark.parametrize("name", ["serve_kernel_bench",
                                  "generate_kernel_bench"])
def test_kernel_bench_scenarios_match_frozen_digest(default_accel, frozen,
                                                     name):
    assert case_digest(default_accel, name) == frozen[name]


def test_trace_digests_cover_every_case(frozen):
    assert sorted(frozen) == sorted(CASES)


def test_goldens_directory_complete():
    """Exactly the six scenario goldens are committed (no strays)."""
    expected = {f"serve_{s}.txt" for s in SCENARIOS}
    expected |= {f"generate_{s}.txt" for s in GEN_SCENARIOS}
    present = {p.name for p in GOLDENS.glob("*.txt")}
    assert present == expected, (
        f"goldens drifted: missing {sorted(expected - present)}, "
        f"stray {sorted(present - expected)}")
