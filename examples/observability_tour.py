"""Observability tour: trace, metrics, watchdogs, and profiling.

``repro.obs`` attaches to the simulation kernel's observer/profiler
hooks, so any kernel-driven run can be watched without being changed.
This example drives one failure-injected serving run four ways:

1. **bare** — the reference result;
2. **fully observed** — a plain event list, a Chrome-trace recorder, a
   grid-sampled metrics registry, and a kernel hotspot profiler, all
   composed onto one hook; the records and queue samples must be
   byte-identical to the bare run's (that is the contract the
   trace-identity goldens pin), and the event stream — which only
   observers receive — must agree with the metrics counters; the
   sampler then watches a failure-injected generation run, and its
   ``tokens`` counter must end at the report's ``total_tokens``;
3. **watched** — an SLO watchdog evaluating burn-rate/fleet-down alert
   rules online, annotating the trace, and feeding ``obs diff``-style
   run-to-run regression analytics;
4. **a profiled DSE sweep** — cache hit/miss split and per-worker
   busy/idle over a tiny design space, cold then warm.

Run:  python examples/observability_tour.py
"""

import json
import tempfile
from collections import Counter
from pathlib import Path

from repro import FailurePlan, ProTEA, SynthParams, get_model
from repro.dse import Axis, Objective, SearchSpace, explore
from repro.obs import (
    AnomalyDetector,
    KernelProfiler,
    MetricsSampler,
    TraceRecorder,
    Watchdog,
    compose,
    diff_runs,
    render_diff,
    render_kernel_profile,
)
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    render_serving_report,
    simulate,
    simulate_generation,
    summarize,
    summarize_generation,
)

accel = ProTEA.synthesize(SynthParams())
mix = ModelMix({"model2-lhc-trigger": 3.0, "model1-peng-isqed21": 1.0})
reqs = PoissonArrivals(500, mix, seed=0).generate(800)
plan = FailurePlan(mtbf_ms=300.0, mttr_ms=25.0, seed=7)
knobs = dict(scheduler="model-affinity", batching=fixed_size(4),
             reprogram_latency_ms=5.0, failures=plan)

# ------------------------------------------------------------------ #
# 1 + 2. The same run, bare and fully observed — byte-identical.
# ------------------------------------------------------------------ #
bare = simulate(accel, reqs, 3, **knobs)

events = []
tracer = TraceRecorder()
sampler = MetricsSampler(grid_ms=20.0)
profiler = KernelProfiler()
observed = simulate(accel, reqs, 3,
                    observer=compose(events.append, tracer, sampler),
                    profiler=profiler, **knobs)

assert observed.records == bare.records
assert observed.queue_samples == bare.queue_samples
print(render_serving_report(
    summarize(observed, slo_ms=50.0),
    title="Observed run (identical to the bare run)"))

counters = sampler.registry.as_dict()["counters"]
print(f"\nmetrics: {counters['arrivals']:.0f} arrivals -> "
      f"{counters['completions']:.0f} completions, "
      f"{counters['failures']:.0f} fault(s), "
      f"{counters['requeues']:.0f} requeue(s), "
      f"{len(sampler.registry.series)} grid samples")
assert counters["arrivals"] == counters["completions"] == len(reqs)
assert sampler.registry.gauges["queued"].value == 0.0  # drained
kinds = Counter(e[0] for e in events)
assert kinds["arrive"] == counters["arrivals"]
assert kinds["requeue"] == counters["requeues"] > 0  # displaced work
print(f"events: {len(events)} tuples, "
      + ", ".join(f"{n} {k}" for k, n in sorted(kinds.items())))

with tempfile.TemporaryDirectory() as tmp:
    trace_path = Path(tmp) / "serve.trace.json"
    tracer.dump(trace_path, run_config={"qps": 500, "seed": 0})
    doc = json.loads(trace_path.read_text())
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    print(f"trace: {len(doc['traceEvents'])} events ({len(spans)} spans) "
          "-> open in chrome://tracing or ui.perfetto.dev")
    assert any(e["name"] == "down" for e in spans)  # fault windows drawn

print()
print(render_kernel_profile(profiler))
assert profiler.total_events > len(reqs)  # arrivals + frees + faults

# A sampler over a failure-injected generation run: its token counter
# follows completed steps, so an aborted step's undelivered tokens never
# count and a resume's re-prefill emits none.  It ends at exactly the
# report's total_tokens.
gen_reqs = attach_generation_lengths(
    PoissonArrivals(300, mix, seed=0).generate(300),
    LengthSampler("uniform", 4, 16),
    LengthSampler("geometric", 1, 12, mean_extra=4.0), seed=0,
    max_total=accel.synth.max_seq_len)
gen_sampler = MetricsSampler(grid_ms=10.0)
gen_report = summarize_generation(simulate_generation(
    accel, gen_reqs, 2, slots=2,
    failures=FailurePlan(mtbf_ms=40.0, mttr_ms=10.0, seed=0),
    observer=gen_sampler))
gen_counters = gen_sampler.registry.counters
print(f"\ngeneration metrics: {gen_counters['tokens'].value:.0f} tokens in "
      f"{gen_counters['steps'].value:.0f} steps, "
      f"{gen_counters['failures'].value:.0f} fault(s); report: "
      f"{gen_report.total_tokens} tokens")
assert gen_counters["failures"].value > 0
assert gen_counters["tokens"].value == gen_report.total_tokens

# ------------------------------------------------------------------ #
# 3. The same run again under an SLO watchdog: burn-rate paging and
#    anomaly onsets computed online, in simulated time — and still
#    byte-identical to the bare run.
# ------------------------------------------------------------------ #
watchdog = Watchdog(slo_ms=50.0, target=0.99, fast_window_ms=100.0,
                    slow_window_ms=400.0,
                    detector=AnomalyDetector(min_samples=16, debounce=3))
watched = simulate(accel, reqs, 3, observer=watchdog, **knobs)
assert watched.records == bare.records  # watching never perturbs

summary = watchdog.summary()
print(f"\nwatchdog: {summary['violations']} SLO violation(s) across "
      f"{summary['completions']} completions "
      f"(attainment {summary['attainment']:.4f}), "
      f"{summary['alerts']} alert(s), "
      f"max burn {summary['max_burn_rate']:.3g}x budget")
assert summary["completions"] == len(reqs)
assert summary["rules"]["fleet_down"]["alerts"] > 0   # faults paged
assert summary["rules"]["burn_rate"]["alerts"] > 0    # budget burned
report = summarize(watched, slo_ms=50.0, watch=summary)
assert report.watch == summary  # rides into the report / --json block

watchdog.annotate(tracer)  # alert spans land on the alerts row
assert any(e.get("tid") == 10_000 for e in tracer.events)

# Run-to-run analytics, same engine as `repro obs diff`: a clean fleet
# vs the failure-injected one flags real regressions; a run diffed
# against itself never does.
clean = simulate(accel, reqs, 3, scheduler="model-affinity",
                 batching=fixed_size(4), reprogram_latency_ms=5.0)
self_diff = diff_runs(report.as_dict(), report.as_dict())
assert self_diff.ok and not self_diff.regressions

vs_clean = diff_runs(summarize(clean, slo_ms=50.0).as_dict(),
                     report.as_dict())
assert not vs_clean.ok  # failures must register as regressions
regressed = {e.key for e in vs_clean.regressions}
assert "availability" in regressed or "slo_attainment" in regressed \
    or any("p99" in k for k in regressed)
print(f"obs diff vs clean fleet: {len(vs_clean.regressions)} "
      f"regression(s), e.g. {sorted(regressed)[0]}")
print(render_diff(self_diff, name_a="run.json", name_b="rerun.json"))

# ------------------------------------------------------------------ #
# 4. A profiled DSE sweep: cold misses, then a warm all-hit resume.
# ------------------------------------------------------------------ #


def measure(point, settings):
    accel = ProTEA.synthesize(SynthParams().with_tiles(point["tiles"], 6))
    latency = accel.latency_ms(get_model("model2-lhc-trigger"))
    return {"latency_ms": latency, "tiles": float(point["tiles"])}


space = SearchSpace((Axis("tiles", (8, 12, 48)),))
objectives = (Objective("latency_ms", "min"),)

from repro.dse import EvalCache  # noqa: E402 - grouped with its use

with tempfile.TemporaryDirectory() as tmp:
    cache = EvalCache(Path(tmp) / "cache")
    cold = explore(space, measure, objectives=objectives, cache=cache,
                   profile=True)
    warm = explore(space, measure, objectives=objectives, cache=cache,
                   profile=True)

print(f"\nDSE cold: {cold.profile.cache_misses} miss(es), "
      f"{cold.profile.eval_wall_s * 1e3:.1f} ms of evaluation across "
      f"{sorted(cold.profile.workers())}")
print(f"DSE warm: {warm.profile.cache_hits} hit(s), "
      f"{len(warm.profile.points)} fresh evaluation(s)")
assert cold.profile.cache_misses == 3 and cold.profile.cache_hits == 0
assert all(r.ok for r in cold.results), [r.error for r in cold.results]
assert len(cold.profile.points) == 3  # every miss was evaluated
assert warm.profile.cache_hits == 3 and not warm.profile.points
assert ([r.objectives for r in cold.results]
        == [r.objectives for r in warm.results])

print("\nOK: observation changed nothing, and every pillar — trace, "
      "metrics, watchdog, profile — saw the run")
