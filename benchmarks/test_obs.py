"""Bench: observability must be free when disabled, cheap when on.

The observer/profiler hooks are threaded through the kernel and engine
drain loops.  With nothing attached, the engines execute the exact
pre-hook code path, so the hooks must cost nothing — this bench holds
that contract against the committed perf history.

The detector is calibrated: the serving benchmark scenario runs bare
through the kernel engine, its wall time rescaled to a reference host
speed by ``perfbench/calibrate.py`` (see ``test_sim_kernel.py``), and

    obs_overhead_x = rolling median(committed
                     serving_kernel_requests_per_s) / current rate

is the bare path's slowdown relative to the recorded history, asserted
<= 1.05x.  A second bench records what a fully instrumented run
(TraceRecorder + MetricsSampler + KernelProfiler) costs relative to a
bare one; that ratio is informational, since observability is opt-in,
but the instrumented records and queue samples must stay
byte-identical.  A bare run builds no event tuples at all — the
observers are the stream's only consumers — so the ratio also counts
the cost of materializing the stream.

The SLO watchdog is another observer.  Its gate is

    watch_overhead_x = t(watchdog attached) / t(trace+metrics+profiler)

on a generation failure scenario — the watchdog must not cost more
than the reference instrumented stack users already accept (asserted
<= 1.05x).  Both times are medians of five calls, each rescaled by the
calibration kernel runs beside it (``_calibrated_race`` in
``test_sim_kernel.py``), so a slow host phase that lands on one side
of a round cancels instead of deciding the gate; the enabled-path
ratio is measured the same way.  Normalizing by another *attached*
run on the same machine cancels machine speed and the shared
hook-dispatch cost, which a raw attached-vs-bare ratio (recorded in
the context as ``watch_vs_bare_x``, informational) cannot: per-event
Python dispatch alone puts that ratio far above any useful gate.
"""

import json
import statistics
from pathlib import Path

from repro import FailurePlan, ProTEA, SynthParams
from repro.obs import (
    AnomalyDetector,
    KernelProfiler,
    MetricsSampler,
    TraceRecorder,
    Watchdog,
    compose,
)
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
)
from repro.serving.generation import GenerationClusterSimulator

from test_sim_kernel import (_calibrated_race, serving_kernel_requests_per_s,
                             serving_kernel_scenario)

RESULTS_PATH = Path(__file__).parent / "output" / "BENCH_results.json"
#: Committed runs the baseline median spans (``obs bench``'s default).
WINDOW = 8


def _historical_rates():
    """Committed ``serving_kernel_requests_per_s`` history."""
    if not RESULTS_PATH.exists():
        return []
    try:
        history = json.loads(RESULTS_PATH.read_text())
    except (ValueError, OSError):
        return []
    return [r["value"] for r in history
            if isinstance(r, dict)
            and r.get("suite") == "sim"
            and r.get("metric") == "serving_kernel_requests_per_s"]


def test_bench_disabled_path_overhead(record_perf):
    sim, requests = serving_kernel_scenario()
    current = serving_kernel_requests_per_s(sim, requests)
    prior = _historical_rates()[-WINDOW:]
    # A fresh checkout with no history has nothing to compare against:
    # the current run is its own baseline.
    baseline = statistics.median(prior) if prior else current
    overhead = baseline / current

    record_perf("obs", "obs_overhead_x", overhead, "x",
                context={"baseline_requests_per_s": baseline,
                         "baseline_runs": len(prior),
                         "current_requests_per_s": current})
    assert overhead <= 1.05, (
        f"disabled-observability kernel is {overhead:.3f}x slower than "
        f"the committed history ({current:,.0f} requests/s vs a median "
        f"of {baseline:,.0f} over {len(prior)} runs, both rescaled to "
        "the reference host speed) — the observer/profiler hooks must "
        "be free when detached")


def test_bench_enabled_path_cost(record_perf):
    sim, requests = serving_kernel_scenario()

    def observed_run():
        tracer = TraceRecorder()
        sampler = MetricsSampler(grid_ms=10.0)
        profiler = KernelProfiler()
        result = sim.run(requests, observer=compose(tracer, sampler),
                         profiler=profiler)
        return result, tracer, sampler, profiler

    (t_bare, bare), (t_obs, (obs, tracer, sampler, profiler)) = (
        _calibrated_race([lambda: sim.run(requests), observed_run],
                         rounds=5))

    # Instrumentation watched a byte-identical simulation...
    assert bare.records == obs.records
    assert bare.queue_samples == obs.queue_samples
    # ...and actually saw its event stream: spans recorded, counters
    # conserved, every popped event profiled.
    assert len(tracer.events) > len(requests)  # arrive instants + spans
    counters = sampler.registry.as_dict()["counters"]
    assert counters["arrivals"] == len(requests)
    assert counters["completions"] == len(requests)
    assert profiler.total_events > 0

    ratio = t_obs / t_bare
    record_perf("obs", "obs_enabled_overhead_x", ratio, "x",
                context={"observers": "trace+metrics+profiler",
                         "requests": len(requests)})
    # Informational, not a perf gate — but a runaway ratio means an
    # observer grew per-event work far beyond bookkeeping.
    assert ratio < 25.0, (
        f"fully instrumented run costs {ratio:.1f}x a bare one")


def test_bench_watchdog_overhead(record_perf):
    """The SLO watchdog must cost no more than the trace+metrics+
    profiler stack it rides alongside (<= 1.05x, gated)."""
    accel = ProTEA.synthesize(SynthParams())
    mix = ModelMix({"model2-lhc-trigger": 2.0, "model1-peng-isqed21": 1.0})
    arrivals = PoissonArrivals(400, mix, seed=3).generate(4_000)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, mean_extra=12.0), seed=5,
        max_total=accel.synth.max_seq_len)
    sim = GenerationClusterSimulator(
        accel, 4, scheduler="least-loaded",
        failures=FailurePlan(mtbf_ms=900.0, mttr_ms=40.0, seed=11))
    sim.run(requests)  # warm the service-time memos

    def watched_run():
        watchdog = Watchdog(slo_ms=30.0, target=0.9, fast_window_ms=50.0,
                            slow_window_ms=200.0, burn_threshold=1.5,
                            detector=AnomalyDetector(min_samples=16,
                                                     debounce=2))
        return sim.run(requests, observer=watchdog), watchdog

    def instrumented_run():
        tracer = TraceRecorder()
        sampler = MetricsSampler(grid_ms=10.0)
        return sim.run(requests, observer=compose(tracer, sampler),
                       profiler=KernelProfiler())

    (t_obs, instrumented), (t_watch, (watched, watchdog)), (t_bare, bare) = (
        _calibrated_race([instrumented_run, watched_run,
                          lambda: sim.run(requests)], rounds=5))

    # The watchdog watched a byte-identical simulation...
    assert watched.records == bare.records == instrumented.records
    assert watched.queue_samples == bare.queue_samples
    # ...and actually armed: completions counted, rules evaluated.
    assert watchdog.completions == len(requests)
    assert watchdog.rules()

    overhead = t_watch / t_obs
    record_perf("obs", "watch_overhead_x", overhead, "x",
                context={"reference": "trace+metrics+profiler",
                         "watch_vs_bare_x": t_watch / t_bare,
                         "requests": len(requests),
                         "completions": watchdog.completions,
                         "alerts": len(watchdog.alerts())})
    assert overhead <= 1.05, (
        f"watchdog-attached run costs {overhead:.3f}x the reference "
        "instrumented run (trace+metrics+profiler) — the watchdog's "
        "per-completion bookkeeping must stay within the established "
        "observer cost envelope")
