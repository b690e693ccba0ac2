"""Bench: absolute throughput of the kernel engines.

Every timed call here is rescaled to a reference host speed with
``perfbench/calibrate.py``: the fixed calibration kernel runs just
before and just after the call, and the call's wall time is recorded
as ``calibrate.rescale(wall, kernel_s)`` (the median over the calls,
where a bench times several).  A slow phase of a shared
host slows the kernel and the call alike and cancels out of the
rescaled number; a change to the engine does not.

* ``serving_kernel_requests_per_s`` — the serving benchmark scenario
  (10k mixed-model requests over 8 instances, model-affinity dispatch,
  fixed-4 batching, 5 ms reprogram penalty), full detail.
* ``generation_kernel_tokens_per_s`` — the generation benchmark
  scenario (Poisson 40 qps for 4 s, fixed 16/24 lengths, 2 instances
  of 8 slots), full detail.  The outputs of both scenarios are pinned
  by sha256 in ``tests/goldens/trace_digests.json``.
* ``serving_1M_requests_per_s`` — the million-request scale row:
  merged arrivals + batched completions + summary detail.  Its report
  must equal the full-detail report of the same run (percentiles
  exactly, means to 1e-12 relative) before any number is recorded;
  CI's bench-trend job gates it.

``workload_generate_requests_per_s`` records how fast the stock Poisson
process builds a ~1M-request stream (recorded, not gated).

The full-detail serve row records absolute requests/s of
``simulate(detail="full")`` + :func:`summarize` at the shape of the
CLI's ``serve`` default workload (20k qps for 3.5 s, 16 instances,
least-loaded, timeout(8, 2 ms) batching): the path that pays for one
record per request (``serve_full_detail_requests_per_s``).

The fleet-scaling row records absolute generation drain throughput
(output tokens/s) at 16 and at 128 instances with the per-instance
load held constant, and gates their per-token cost ratio
(``gen_fleet_scaling_x``) at >= 0.7: per-event engine cost must not
grow with fleet size.  The two drains are timed in one
:func:`_calibrated_race` of five interleaved rounds, so a slow host
phase lands on both sizes rather than on one of them.
"""

import gc
import math
import statistics
import sys
import time
from pathlib import Path

from repro import ProTEA, SynthParams
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    simulate,
    summarize,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import calibrate  # noqa: E402

MIX = ModelMix({
    "model2-lhc-trigger": 4.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})


def _timed_once(fn):
    """One GC-quiet wall-clock measurement: (seconds, result)."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, result


def _calibrated_race(fns, rounds=1):
    """Time ``rounds`` rounds of GC-quiet calls, each round calling every
    one of ``fns`` in turn, with the calibration kernel run before,
    between and after the calls: per function, (median rescaled wall
    time, last result).  Each call is rescaled by the mean of the two
    kernel runs beside it, so a host phase shared by the call and its
    neighbours cancels; the median drops the calls a phase change
    split."""
    kernels = [calibrate.time_kernel()]
    rescaled = [[] for _ in fns]
    results = [None] * len(fns)
    for _ in range(rounds):
        for i, fn in enumerate(fns):
            results[i] = None  # free the last result before the next call
            elapsed, results[i] = _timed_once(fn)
            kernels.append(calibrate.time_kernel())
            rescaled[i].append(calibrate.rescale(
                elapsed, (kernels[-2] + kernels[-1]) / 2))
    return [(statistics.median(times), result)
            for times, result in zip(rescaled, results)]


def _calibrated(fn, rounds=1):
    """:func:`_calibrated_race` of ``fn`` alone: (median rescaled wall
    time, last result)."""
    return _calibrated_race([fn], rounds)[0]


def serving_kernel_scenario():
    """The serving benchmark scenario, memos warmed: (sim, requests)."""
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(900, MIX, seed=0).generate(11_500)
    sim = ClusterSimulator(accel, 8, scheduler="model-affinity",
                           batching=fixed_size(4),
                           reprogram_latency_ms=5.0)
    sim.run(requests)  # warm the service-time memos
    return sim, requests


def serving_kernel_requests_per_s(sim, requests) -> float:
    """Rescaled full-detail requests/s of the serving scenario."""
    wall, result = _calibrated(lambda: sim.run(requests), rounds=21)
    assert len(result.records) == len(requests)
    return len(requests) / wall


def test_bench_serving_kernel(record_perf):
    sim, requests = serving_kernel_scenario()
    assert len(requests) > 9_000
    rate = serving_kernel_requests_per_s(sim, requests)
    record_perf("sim", "serving_kernel_requests_per_s", rate, "requests/s",
                context={"requests": len(requests), "instances": 8})


def test_bench_generation_kernel(record_perf):
    accel = ProTEA.synthesize(SynthParams())
    arrivals = PoissonArrivals(40, MIX, seed=1).generate(4_000)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("fixed", 16), LengthSampler("fixed", 24),
        max_total=accel.synth.max_seq_len)
    assert len(requests) > 100
    sim = GenerationClusterSimulator(accel, 2, slots=8,
                                     scheduler="least-loaded")
    sim.run(requests)  # warm the prefill/decode memos

    wall, result = _calibrated(lambda: sim.run(requests), rounds=21)
    assert len(result.records) == len(requests)
    record_perf("sim", "generation_kernel_tokens_per_s",
                result.total_tokens / wall, "tokens/s",
                context={"requests": len(requests),
                         "tokens": result.total_tokens})


def test_bench_serving_1M_requests(record_perf):
    """The web-scale row: ~1M requests through one serving fleet.

    The timed run is summary detail: merged arrivals, batched
    completions, no per-request records.  The same run at full detail
    (untimed) is its oracle: both reduce through :func:`summarize`,
    and the reports must agree (percentiles exactly, means to 1e-12
    relative) before any number is recorded.
    """
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(
        12_600, ModelMix({"model2-lhc-trigger": 1.0}),
        seed=7).generate(80_000)
    assert len(requests) > 1_000_000
    sim = ClusterSimulator(accel, 8, scheduler="round-robin",
                           batching=fixed_size(8))
    # Warm the service-time memos on a prefix so the timed run pays no
    # first-call synthesis costs.
    sim.run(requests[:2_000], detail="summary")

    wall, summary = _calibrated(
        lambda: sim.run(requests, detail="summary"), rounds=3)
    rep_fast = summarize(summary)
    del summary
    rep_full = summarize(sim.run(requests))
    assert rep_fast.total_requests == len(requests)
    assert rep_fast.total_requests == rep_full.total_requests
    assert rep_fast.p50_ms == rep_full.p50_ms
    assert rep_fast.p99_ms == rep_full.p99_ms
    assert rep_fast.horizon_ms == rep_full.horizon_ms
    assert math.isclose(rep_fast.mean_latency_ms,
                        rep_full.mean_latency_ms, rel_tol=1e-12)

    record_perf("sim", "serving_1M_requests_per_s", len(requests) / wall,
                "requests/s", context={"requests": len(requests),
                                       "rescaled_s": wall})


def test_bench_workload_generate(record_perf):
    """Open-loop workload generation: ~1M Poisson requests, one model.

    The median of five host-rescaled ``generate`` calls, recorded as
    requests/s; not gated.
    """
    process = PoissonArrivals(12_600, ModelMix("model2-lhc-trigger"),
                              seed=7)
    wall, requests = _calibrated(lambda: process.generate(80_000),
                                 rounds=5)
    assert len(requests) > 1_000_000
    assert requests[-1].rid == len(requests) - 1
    record_perf("workload", "workload_generate_requests_per_s",
                len(requests) / wall, "requests/s",
                context={"requests": len(requests), "rescaled_s": wall})


def _gen_fleet_drain(accel, n, per_instance_qps=62.5, duration_ms=500.0):
    """A full-detail generation drain at ``n`` instances, memos warmed,
    as a zero-argument call.  The per-instance arrival rate and the
    length mix are those of the ``generate_watch`` workload."""
    arrivals = PoissonArrivals(per_instance_qps * n,
                               ModelMix("model2-lhc-trigger"),
                               seed=3).generate(duration_ms)
    requests = attach_generation_lengths(
        arrivals, LengthSampler.parse("16:64"),
        LengthSampler.parse("geo:8:32"), seed=3,
        max_total=accel.synth.max_seq_len)
    sim = GenerationClusterSimulator(accel, n, slots=8,
                                     scheduler="least-loaded")
    sim.run(requests[:50])  # warm the prefill/decode memos
    return lambda: sim.run(requests)


def test_bench_generation_fleet_scaling(record_perf):
    """Per-token drain cost at 128 instances vs 16, same load each.

    The work per instance is the same at both sizes, so a per-event
    cost that is independent of fleet size keeps the per-token cost
    flat.  A per-sample sum over the fleet, as the generation drains
    once had, costs ~3x more per token at 128 instances.
    """
    accel = ProTEA.synthesize(SynthParams())
    (t_16, result_16), (t_128, result_128) = _calibrated_race(
        [_gen_fleet_drain(accel, 16), _gen_fleet_drain(accel, 128)],
        rounds=5)
    tokens_16 = result_16.total_tokens
    tokens_128 = result_128.total_tokens
    assert tokens_128 > 6 * tokens_16
    scaling = (t_16 / tokens_16) / (t_128 / tokens_128)
    record_perf("sim", "gen_fleet16_tokens_per_s", tokens_16 / t_16,
                "tokens/s", context={"instances": 16, "tokens": tokens_16})
    record_perf("sim", "gen_fleet128_tokens_per_s", tokens_128 / t_128,
                "tokens/s", context={"instances": 128,
                                     "tokens": tokens_128})
    record_perf("sim", "gen_fleet_scaling_x", scaling, "x")
    assert scaling >= 0.7, (
        f"per-token generation drain cost grew with fleet size: "
        f"{t_16 / tokens_16 * 1e6:.2f} us/token at 16 instances, "
        f"{t_128 / tokens_128 * 1e6:.2f} at 128 ({scaling:.2f}x)")


def test_bench_serve_full_detail(record_perf):
    """Full-detail serve, end to end through the report, in requests/s.

    Times ``simulate(detail="full")`` plus ``summarize`` — what the
    CLI's default ``serve`` run pays after workload generation — with
    the garbage collector left on, as the CLI runs.  Best of three.
    """
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(
        20_000, ModelMix("model2-lhc-trigger"), seed=0).generate(3_500)
    batching = timeout(8, 2.0)

    def run():
        result = simulate(accel, requests, 16, scheduler="least-loaded",
                          batching=batching)
        return summarize(result)

    run()  # warm the service-time memos
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        report = run()
        best = min(best, time.perf_counter() - t0)
    assert report.total_requests == len(requests)
    record_perf("sim", "serve_full_detail_requests_per_s",
                len(requests) / best, "requests/s",
                context={"requests": len(requests), "instances": 16,
                         "best_s": best})
