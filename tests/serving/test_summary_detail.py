"""``detail="summary"`` equivalence against the full-record path.

The summary drains in :mod:`repro.sim.serve` and
:mod:`repro.sim.generate` replay the exact event sequence of the full
path while accumulating only what the SLO reports read.  These tests
pin the contract: every percentile field of the reduced report is
**bit-identical** to the full path's (the engines keep the exact
latency multisets), mean fields differ by float summation order only
(accumulation follows completion order instead of record order, which
can move a mean by many ulps, never by more than ``n * 2**-52``
relative), and instance stats match exactly.
"""

import math
import random

import pytest

from repro.obs import KernelProfiler, MetricsSampler, TraceRecorder, compose
from repro.serving import (
    ClusterSimulator,
    GenerationClusterSimulator,
    GenerationRequest,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    simulate,
    simulate_generation,
    summarize,
    summarize_generation,
    timeout,
)
from repro.sim.failures import FailurePlan
from repro.sim.summary import GenerationSummary, ServeSummary

from ..sim.test_trace_identity import GEN_SCENARIOS as GOLDEN_GEN
from ..sim.test_trace_identity import SCENARIOS as GOLDEN_SERVE

MIX = ModelMix({"model2-lhc-trigger": 3.0, "model1-peng-isqed21": 2.0,
                "model3-efa-trans": 1.0})
MIX1 = ModelMix("model2-lhc-trigger")

#: Report fields where the summary path may differ by float summation
#: order (sums folded in completion order, not rid order).
_ULP_FIELDS = frozenset({
    "mean_latency_ms", "mean_wait_ms", "mean_ttft_ms", "mean_tpot_ms",
    "throughput_rps", "tokens_per_s", "utilization", "mean_queue_depth",
    "goodput_tokens_per_s", "p99_degraded_ms", "availability",
    "mean_batch_size",
})


def _assert_field(name, a, b):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        # An empty run's percentiles and means are NaN at both levels.
        assert math.isnan(b), f"report field {name!r}: summary={b!r}"
    elif name in _ULP_FIELDS and isinstance(a, float) and isinstance(b, float):
        assert b == pytest.approx(a, rel=1e-12), name
    else:
        assert a == b, f"report field {name!r}: full={a!r} summary={b!r}"


def assert_reports_match(full, summary):
    """Field-by-field report equality (relative tolerance on mean
    fields)."""
    assert type(full) is type(summary)
    for f in full.__dataclass_fields__:
        a, b = getattr(full, f), getattr(summary, f)
        if f == "per_model":
            assert a.keys() == b.keys()
            for name in a:
                for mf in a[name].__dataclass_fields__:
                    _assert_field(mf, getattr(a[name], mf),
                                  getattr(b[name], mf))
        else:
            _assert_field(f, a, b)


def _requests(qps=400, seed=11, duration=800):
    return PoissonArrivals(qps, MIX, seed=seed).generate(duration)


def _gen_requests(accel, qps=30, seed=404, duration=500.0, lseed=77):
    arrivals = PoissonArrivals(qps, MIX, seed=seed).generate(duration)
    return attach_generation_lengths(
        arrivals,
        LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, 48, mean_extra=10.0),
        seed=lseed, max_total=accel.synth.max_seq_len)


class TestServeSummary:
    def test_fast_drain_matches_full(self, default_accel):
        """Round-robin + fixed-size batching takes the inlined drain."""
        reqs = _requests()
        sim = ClusterSimulator(default_accel, 3, scheduler="round-robin",
                               batching=fixed_size(4))
        full = summarize(sim.run(reqs), slo_ms=20.0)
        s = sim.run(reqs, detail="summary")
        assert isinstance(s, ServeSummary)
        assert_reports_match(full, summarize(s, slo_ms=20.0))

    def test_generic_drain_matches_full(self, default_accel):
        """Timeout batching (check events) runs the shared handlers."""
        reqs = _requests(qps=300, seed=7)
        sim = ClusterSimulator(default_accel, 3, scheduler="model-affinity",
                               batching=timeout(4, 2.0),
                               reprogram_latency_ms=5.0)
        full = summarize(sim.run(reqs))
        assert_reports_match(full, summarize(sim.run(reqs, detail="summary")))

    def test_failure_run_matches_full(self, default_accel):
        """Degraded/touched accounting survives the summary reduction."""
        reqs = _requests(qps=250, seed=13, duration=2000)
        plan = FailurePlan(mtbf_ms=700.0, mttr_ms=90.0, seed=5)
        sim = ClusterSimulator(default_accel, 3, scheduler="least-loaded",
                               batching=fixed_size(4), failures=plan)
        full = summarize(sim.run(reqs))
        summ = summarize(sim.run(reqs, detail="summary"))
        assert full.total_retries == summ.total_retries
        assert full.degraded_count == summ.degraded_count
        assert_reports_match(full, summ)

    def test_observer_does_not_perturb_summary(self, default_accel):
        """An attached observer sees events but cannot change floats."""
        reqs = _requests(qps=200, seed=3, duration=400)
        sim = ClusterSimulator(default_accel, 2, scheduler="round-robin",
                               batching=timeout(4, 2.0))
        bare = sim.run(reqs, detail="summary")
        recorder = TraceRecorder()
        obs = compose(recorder, MetricsSampler(grid_ms=25.0))
        observed = sim.run(reqs, observer=obs, detail="summary")
        assert summarize(bare) == summarize(observed)
        assert recorder.events  # the observer actually saw the run

    def test_unknown_detail_rejected(self, default_accel):
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="unknown detail"):
            sim.run(_requests(duration=50), detail="records")

    @pytest.mark.parametrize("batching", [fixed_size(4), timeout(4, 2.0)],
                             ids=["no-timeout", "timeout"])
    def test_profiled_summary_matches_bare(self, default_accel, batching):
        """A profiler wraps the shared handlers at either detail level:
        the profiled summary equals the bare one (with a profiler the
        no-timeout run leaves the inlined drain for the general one)
        and counts exactly the events a profiled full run counts."""
        reqs = _requests(duration=200)
        sim = ClusterSimulator(default_accel, 2, batching=batching)
        bare = sim.run(reqs, detail="summary")
        prof_summary, prof_full = KernelProfiler(), KernelProfiler()
        profiled = sim.run(reqs, profiler=prof_summary, detail="summary")
        sim.run(reqs, profiler=prof_full)
        assert profiled == bare
        assert summarize(profiled) == summarize(bare)
        assert prof_summary.counts == prof_full.counts
        assert prof_summary.counts["arrival"] == len(reqs)

    def test_simulate_facade_passes_detail(self, default_accel):
        s = simulate(default_accel, _requests(duration=100), 2,
                     detail="summary")
        assert isinstance(s, ServeSummary)


class TestGenerationSummary:
    def test_summary_matches_full(self, default_accel):
        reqs = _gen_requests(default_accel)
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0)
        full = summarize_generation(sim.run(reqs), ttft_slo_ms=40.0,
                                    tpot_slo_ms=8.0)
        s = sim.run(reqs, detail="summary")
        assert isinstance(s, GenerationSummary)
        assert_reports_match(
            full, summarize_generation(s, ttft_slo_ms=40.0, tpot_slo_ms=8.0))

    def test_failure_run_matches_full(self, default_accel):
        reqs = _gen_requests(default_accel, qps=35, seed=909,
                             duration=2000.0, lseed=78)
        plan = FailurePlan(mtbf_ms=900.0, mttr_ms=120.0, seed=5)
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0, failures=plan)
        full = summarize_generation(sim.run(reqs))
        summ = summarize_generation(sim.run(reqs, detail="summary"))
        assert full.total_retries == summ.total_retries
        assert full.availability is not None
        assert_reports_match(full, summ)

    def test_priority_preemption_matches_full(self, default_accel):
        rng = random.Random(3)
        reqs = [GenerationRequest(r.rid, r.t_ms, r.model, r.prompt_tokens,
                                  r.output_tokens,
                                  rng.choice([0, 0, 1, 2]))
                for r in _gen_requests(default_accel, qps=35, seed=910,
                                       duration=1500.0, lseed=79)]
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0, preemption=True)
        full = summarize_generation(sim.run(reqs))
        summ = summarize_generation(sim.run(reqs, detail="summary"))
        assert full.total_preemptions == summ.total_preemptions
        assert_reports_match(full, summ)

    def test_unknown_detail_rejected(self, default_accel):
        sim = GenerationClusterSimulator(default_accel, 2, slots=4)
        with pytest.raises(ValueError, match="unknown detail"):
            sim.run(_gen_requests(default_accel, duration=50.0),
                    detail="records")

    def test_profiled_summary_matches_bare(self, default_accel):
        reqs = _gen_requests(default_accel, duration=200.0)
        sim = GenerationClusterSimulator(default_accel, 2, slots=4)
        bare = sim.run(reqs, detail="summary")
        prof_summary, prof_full = KernelProfiler(), KernelProfiler()
        profiled = sim.run(reqs, profiler=prof_summary, detail="summary")
        sim.run(reqs, profiler=prof_full)
        assert profiled == bare
        assert summarize_generation(profiled) == summarize_generation(bare)
        assert prof_summary.counts == prof_full.counts
        assert prof_summary.counts["arrival"] == len(reqs)

    def test_simulate_facade_passes_detail(self, default_accel):
        s = simulate_generation(
            default_accel, _gen_requests(default_accel, duration=100.0),
            2, slots=4, detail="summary")
        assert isinstance(s, GenerationSummary)
        report = summarize_generation(s)
        assert report.total_requests == s.total_requests


def test_empty_workload_reports_match(default_accel):
    """A zero-arrival run reports NaN percentiles and means at both
    detail levels; the comparison treats NaN as equal to NaN."""
    sim = ClusterSimulator(default_accel, 2)
    full = summarize(sim.run([]))
    assert math.isnan(full.p50_ms)
    assert_reports_match(full, summarize(sim.run([], detail="summary")))
    gen = GenerationClusterSimulator(default_accel, 2, slots=4)
    full = summarize_generation(gen.run([]))
    assert math.isnan(full.p50_ttft_ms)
    assert_reports_match(
        full, summarize_generation(gen.run([], detail="summary")))


class TestMeanSummationBound:
    """Summary-vs-full means differ by float summation order only.

    Each mean is a sum of ``n`` non-negative terms folded in a
    different order, so the two means may differ by up to about ``n``
    ulps — measured: 27 ulps on the ``serve_full`` workload shape, over
    a thousand on a ``serve --plan`` probe — but never by more than
    ``n * 2**-52 * |mean|``.  Percentiles and counts never differ.
    """

    SERVE_MEANS = ("mean_latency_ms", "mean_wait_ms")
    GEN_MEANS = ("mean_ttft_ms", "mean_tpot_ms", "mean_latency_ms",
                 "mean_wait_ms")

    @staticmethod
    def _assert_within(name, full, summ, n):
        bound = n * 2.0 ** -52 * abs(full)
        assert abs(summ - full) <= bound, (
            f"{name}: full={full!r} summary={summ!r} differ by more "
            f"than n*2**-52*|mean| = {bound!r} (n={n})")

    def _check_serve(self, full, summ):
        n = full.total_requests
        assert n and summ.total_requests == n
        for f in ("p50_ms", "p95_ms", "p99_ms", "max_queue_depth"):
            assert getattr(summ, f) == getattr(full, f), f
        for f in self.SERVE_MEANS:
            self._assert_within(f, getattr(full, f), getattr(summ, f), n)
        assert full.per_model.keys() == summ.per_model.keys()
        for name, m in full.per_model.items():
            s = summ.per_model[name]
            assert (s.count, s.p50_ms, s.p95_ms, s.p99_ms) == (
                m.count, m.p50_ms, m.p95_ms, m.p99_ms)
            for f in ("mean_latency_ms", "mean_wait_ms"):
                self._assert_within(f"{name}.{f}", getattr(m, f),
                                    getattr(s, f), m.count)

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_SERVE))
    def test_golden_serve(self, default_accel, scenario):
        reqs = GOLDEN_SERVE[scenario]().generate(600.0)
        sim = ClusterSimulator(
            default_accel, 3, scheduler="model-affinity",
            batching=timeout(4, 2.0), reprogram_latency_ms=5.0)
        self._check_serve(summarize(sim.run(reqs)),
                          summarize(sim.run(reqs, detail="summary")))

    def test_three_model_mix(self, default_accel):
        """A larger three-model fleet at the CLI's batching default."""
        reqs = PoissonArrivals(6000, MIX, seed=21).generate(1000.0)
        sim = ClusterSimulator(default_accel, 16,
                               scheduler="least-loaded",
                               batching=timeout(8, 2.0))
        full = summarize(sim.run(reqs))
        assert len(full.per_model) == 3
        self._check_serve(full, summarize(sim.run(reqs, detail="summary")))

    @pytest.mark.parametrize("scenario", sorted(GOLDEN_GEN))
    def test_golden_generate(self, default_accel, scenario):
        arrivals = GOLDEN_GEN[scenario]().generate(500.0)
        reqs = attach_generation_lengths(
            arrivals,
            LengthSampler("uniform", 8, 24),
            LengthSampler("geometric", 4, 48, mean_extra=10.0),
            seed=77, max_total=default_accel.synth.max_seq_len)
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0)
        full = summarize_generation(sim.run(reqs))
        summ = summarize_generation(sim.run(reqs, detail="summary"))
        n = full.total_requests
        assert n and summ.total_requests == n
        for f in ("p50_ttft_ms", "p95_ttft_ms", "p99_ttft_ms",
                  "p99_tpot_ms", "p99_latency_ms", "total_tokens"):
            assert getattr(summ, f) == getattr(full, f), f
        for f in self.GEN_MEANS:
            self._assert_within(f, getattr(full, f), getattr(summ, f), n)
