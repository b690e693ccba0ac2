"""Failure/recovery injection: conservation, retries, availability,
mid-prefill aborts, and the all-down parking path."""

import pytest

from repro.serving import (
    ModelMix,
    PoissonArrivals,
    fixed_size,
    render_generation_report,
    render_serving_report,
    summarize,
    summarize_generation,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.serving.slo import plan_capacity
from repro.serving.workload import (GenerationRequest, LengthSampler,
                                    attach_generation_lengths)
from repro.sim import FailureInjector, FailurePlan, FleetSpec, InstanceSpec

MIX = ModelMix("model2-lhc-trigger")


def _reqs(qps=500, seed=3, duration=1000):
    return PoissonArrivals(qps, MIX, seed=seed).generate(duration)


class TestFailurePlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="mtbf_ms must be positive"):
            FailurePlan(0.0, 10.0)
        with pytest.raises(ValueError, match="mttr_ms must be >= 0"):
            FailurePlan(100.0, -1.0)

    @pytest.mark.parametrize("kwargs, needle", [
        (dict(mtbf_ms=float("nan"), mttr_ms=10.0), "mtbf_ms"),
        (dict(mtbf_ms=float("inf"), mttr_ms=10.0), "mtbf_ms"),
        (dict(mtbf_ms=100.0, mttr_ms=float("inf")), "mttr_ms"),
        (dict(mtbf_ms=100.0, mttr_ms=float("nan")), "mttr_ms"),
        (dict(mtbf_ms=100.0, mttr_ms=10.0, horizon_ms=float("inf")),
         "horizon_ms"),
        (dict(mtbf_ms=100.0, mttr_ms=10.0, horizon_ms=float("nan")),
         "horizon_ms"),
    ])
    def test_non_finite_rejected(self, kwargs, needle):
        """NaN would inject no fault at all and inf divides by zero in
        the exponential draws: both fail at construction."""
        with pytest.raises(ValueError, match=f"{needle} .*finite"):
            FailurePlan(**kwargs)

    def test_parse(self):
        plan = FailurePlan.parse("200:25.5", seed=4)
        assert plan.mtbf_ms == 200.0
        assert plan.mttr_ms == 25.5
        assert plan.seed == 4
        for bad in ("200", "a:b", ""):
            with pytest.raises(ValueError):
                FailurePlan.parse(bad)

    def test_injector_horizon_and_streams(self):
        inj = FailureInjector(FailurePlan(50.0, 5.0, seed=1),
                              horizon_ms=300.0)
        t = inj.next_failure_ms(0, 0.0)
        assert t is not None and t > 0.0
        # Draws advance per instance stream, independent across idx.
        other_first = FailureInjector(
            FailurePlan(50.0, 5.0, seed=1), 300.0).next_failure_ms(1, 0.0)
        assert other_first != t
        # Beyond the horizon, injection stops.
        assert inj.next_failure_ms(0, 10_000.0) is None

    def test_zero_mttr_recovers_instantly(self):
        inj = FailureInjector(FailurePlan(50.0, 0.0), horizon_ms=100.0)
        assert inj.repair_duration_ms(0) == 0.0


class TestServeFailures:
    def test_every_request_still_served_exactly_once(self, default_accel):
        reqs = _reqs()
        res = ClusterSimulator(
            default_accel, 3, batching=fixed_size(4),
            reprogram_latency_ms=2.0,
            failures=FailurePlan(250.0, 30.0, seed=7)).run(reqs)
        assert sorted(r.rid for r in res.records) == \
               [r.rid for r in reqs]
        assert res.total_failures > 0

    def test_availability_and_downtime_consistent(self, default_accel):
        res = ClusterSimulator(
            default_accel, 3,
            failures=FailurePlan(200.0, 40.0, seed=5)).run(_reqs())
        assert res.availability is not None
        assert 0.0 < res.availability < 1.0
        downtime = sum(i.downtime_ms for i in res.instances)
        assert downtime > 0.0
        assert sum(i.failures for i in res.instances) == res.total_failures

    def test_aborted_batches_count_retries(self, default_accel):
        res = ClusterSimulator(
            default_accel, 2, batching=fixed_size(8),
            failures=FailurePlan(100.0, 20.0, seed=11)).run(_reqs())
        retried = [r for r in res.records if r.retries]
        assert res.total_retries == sum(r.retries for r in res.records)
        assert retried, "no batch was ever in flight during a fault"
        # A retried request's latency includes the wasted attempt.
        assert all(r.latency_ms > 0 for r in retried)

    def test_reports_gain_failure_rows_only_for_failure_runs(
            self, default_accel):
        reqs = _reqs(qps=200, duration=400)
        clean = summarize(ClusterSimulator(default_accel, 2).run(reqs))
        faulty = summarize(ClusterSimulator(
            default_accel, 2,
            failures=FailurePlan(150.0, 25.0, seed=3)).run(reqs))
        assert clean.availability is None
        assert "availability" not in render_serving_report(clean)
        assert faulty.availability is not None
        rendered = render_serving_report(faulty)
        assert "availability" in rendered
        assert "p99 degraded" in rendered
        assert faulty.p99_degraded_ms is not None
        assert "failures" in faulty.as_dict()
        assert "failures" not in clean.as_dict()

    def test_single_instance_fleet_parks_and_drains(self, default_accel):
        """With one instance, every fault parks the backlog until
        recovery — nothing may be lost or double-served."""
        reqs = _reqs(qps=300, duration=800)
        res = ClusterSimulator(
            default_accel, 1,
            failures=FailurePlan(120.0, 60.0, seed=13)).run(reqs)
        assert sorted(r.rid for r in res.records) == \
               [r.rid for r in reqs]
        assert res.total_failures > 0

    def test_plan_capacity_under_failures(self, default_accel):
        reqs = _reqs(qps=300, duration=500)
        plan = plan_capacity(
            default_accel, reqs, target_p99_ms=50.0,
            failures=FailurePlan(200.0, 30.0, seed=2))
        assert plan.meets_slo
        assert plan.report.availability is not None


class TestGenerationFailures:
    def _gen_reqs(self, accel, qps=30, duration=600, out=24, seed=9):
        arrivals = PoissonArrivals(qps, MIX, seed=seed).generate(duration)
        return attach_generation_lengths(
            arrivals, LengthSampler("fixed", 12),
            LengthSampler("fixed", out),
            max_total=accel.synth.max_seq_len)

    def test_every_sequence_completes_with_full_output(self, default_accel):
        # Load high enough that faults land on busy instances (retries).
        reqs = self._gen_reqs(default_accel, qps=150, duration=600, out=48)
        res = GenerationClusterSimulator(
            default_accel, 2, slots=4,
            failures=FailurePlan(60.0, 25.0, seed=21)).run(reqs)
        assert sorted(r.rid for r in res.records) == \
               [r.rid for r in reqs]
        assert all(r.output_tokens == 48 for r in res.records)
        assert res.total_failures > 0 and res.total_retries > 0

    def test_failure_mid_prefill_restarts_request(self, default_accel):
        """A fault during the very first step (prefill in flight, no
        token emitted yet) restarts the request from scratch — it must
        still complete and count a retry."""
        plan = FailurePlan(1e9, 5.0, seed=0)
        sim = GenerationClusterSimulator(default_accel, 2, slots=4,
                                         failures=plan)
        reqs = [GenerationRequest(rid=0, t_ms=0.0,
                                  model="model2-lhc-trigger",
                                  prompt_tokens=32, output_tokens=8)]
        # Force the fault inside the prefill window by injecting it
        # through the engine directly: pick a fail time below the
        # prefill duration.
        prefill_ms = sim.service.prefill_ms("model2-lhc-trigger", 32)
        plan = FailurePlan(prefill_ms / 4, 1.0, seed=3,
                           horizon_ms=prefill_ms / 2)
        sim = GenerationClusterSimulator(default_accel, 1, slots=4,
                                         failures=plan)
        res = sim.run(reqs)
        assert [r.rid for r in res.records] == [0]
        rec = res.records[0]
        if res.total_failures:  # fault landed inside the run
            assert rec.retries >= 1
            # The restart pushes TTFT past a clean prefill.
            assert rec.ttft_ms > prefill_ms
        assert rec.output_tokens == 8

    def test_resume_keeps_emitted_tokens(self, default_accel):
        """A fault after the first token resumes decoding instead of
        re-emitting: total token accounting must stay exact."""
        reqs = self._gen_reqs(default_accel, qps=20, duration=500, out=40)
        res = GenerationClusterSimulator(
            default_accel, 2, slots=2,
            failures=FailurePlan(100.0, 20.0, seed=31)).run(reqs)
        assert res.total_tokens == sum(r.output_tokens for r in reqs)
        # Instance-level token accounting must balance too: aborted
        # sweeps refund their counted-but-unemitted tokens, so the
        # per-instance totals sum to exactly the delivered tokens.
        assert sum(i.tokens for i in res.instances) == res.total_tokens
        resumed = [ev for ev in res.trace if ev[0] == "resume"]
        if res.total_retries:
            assert resumed or any(r.retries for r in res.records)

    def test_generation_report_failure_rows(self, default_accel):
        reqs = self._gen_reqs(default_accel, qps=25, duration=400)
        rep = summarize_generation(GenerationClusterSimulator(
            default_accel, 2, slots=4,
            failures=FailurePlan(120.0, 20.0, seed=41)).run(reqs))
        assert rep.availability is not None
        rendered = render_generation_report(rep)
        assert "availability" in rendered
        assert "failures" in rep.as_dict()
