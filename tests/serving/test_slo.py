"""Tests for serving metrics, SLO attainment, and capacity planning."""

import math

import pytest

from repro.serving import (
    ModelMix,
    PoissonArrivals,
    percentile,
    plan_capacity,
    render_capacity_plan,
    render_serving_report,
    simulate,
    summarize,
)

MIX = ModelMix("model2-lhc-trigger")
MIX2 = ModelMix({"model2-lhc-trigger": 3.0, "model1-peng-isqed21": 1.0})


class TestPercentile:
    def test_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(vals, 50) == 3.0
        assert percentile(vals, 100) == 5.0
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 99) == 5.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0

    def test_empty_raises_clearly(self):
        """No rank exists for an empty input: a clear error, not an
        IndexError (or a silent NaN leaking into reports)."""
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_sample_every_q(self):
        for q in (0, 1e-9, 50, 99.999999, 100):
            assert percentile([7.5], q) == 7.5

    def test_matches_numpy_inverted_cdf(self):
        """Edge audit against the reference definition: q=0, q=100,
        q just below 100, exact-rank products, and fuzzed ranks."""
        np = pytest.importorskip("numpy")
        import random

        rng = random.Random(42)
        cases = []
        for n in (1, 2, 3, 5, 7, 10, 20, 29, 100, 1000):
            vals = sorted(rng.uniform(0, 100) for _ in range(n))
            qs = [0, 1e-9, 25, 50, 75, 95, 99, 99.999999, 100,
                  100 * 2 / 3, 100 * 3 / 7]
            qs += [rng.uniform(0, 100) for _ in range(20)]
            cases.append((vals, qs))
        for vals, qs in cases:
            for q in qs:
                expected = float(np.percentile(vals, q,
                                               method="inverted_cdf"))
                assert percentile(vals, q) == expected, (
                    f"n={len(vals)}, q={q!r}")


@pytest.fixture(scope="module")
def light_run(default_accel):
    reqs = PoissonArrivals(500, MIX2, seed=0).generate(1000)
    return reqs, simulate(default_accel, reqs, 4)


class TestSummarize:
    def test_counts_and_throughput(self, light_run):
        reqs, res = light_run
        rep = summarize(res)
        assert rep.total_requests == len(reqs)
        assert rep.throughput_rps == pytest.approx(
            len(reqs) / (res.makespan_ms / 1e3))
        assert sum(m.count for m in rep.per_model.values()) == len(reqs)

    def test_utilization_bounds(self, light_run):
        _, res = light_run
        rep = summarize(res)
        assert 0 < rep.utilization < 1
        assert rep.n_instances == 4

    def test_percentile_ordering(self, light_run):
        _, res = light_run
        rep = summarize(res)
        assert rep.p50_ms <= rep.p95_ms <= rep.p99_ms

    def test_slo_attainment(self, light_run):
        _, res = light_run
        assert summarize(res, slo_ms=1e9).slo_attainment == 1.0
        assert summarize(res, slo_ms=1e-9).slo_attainment == 0.0
        assert summarize(res).slo_attainment is None

    @pytest.mark.parametrize("detail", ["full", "summary"])
    def test_slo_attainment_counts_ties_at_the_slo(self, default_accel,
                                                   detail):
        """Latencies equal to the SLO meet it.  One instance, batches
        of up to 4 held 1 ms for company: the members of a batch that
        arrived together share one latency, so the sorted latencies
        are L1 < L4 x4 < L3 x3."""
        from repro.serving import timeout
        from repro.serving.workload import Request

        times = (0.0, 0.0, 0.0, 100.0, 200.0, 200.0, 200.0, 200.0)
        reqs = [Request(rid=i, t_ms=t, model="model2-lhc-trigger")
                for i, t in enumerate(times)]
        run = simulate(default_accel, reqs, 1, batching=timeout(4, 1.0),
                       detail=detail)
        full = simulate(default_accel, reqs, 1, batching=timeout(4, 1.0))
        lats = sorted(r.latency_ms for r in full.records)
        assert lats[0] < lats[1] == lats[4] < lats[5] == lats[7]
        below = math.nextafter
        for slo_ms, met in ((lats[0], 1), (below(lats[1], 0.0), 1),
                            (lats[1], 5), (below(lats[5], 0.0), 5),
                            (lats[5], 8)):
            assert met == sum(1 for v in lats if v <= slo_ms)
            report = summarize(run, slo_ms=slo_ms)
            assert report.slo_attainment == met / 8
            assert report.per_model["model2-lhc-trigger"].slo_attainment \
                == met / 8

    @pytest.mark.parametrize("slo_ms", [math.nan, 0.0, -1.0])
    def test_rejects_unmeetable_slo(self, light_run, slo_ms):
        """A NaN SLO used to report ``slo_attainment 0.0``."""
        _, res = light_run
        with pytest.raises(ValueError, match="slo_ms"):
            summarize(res, slo_ms=slo_ms)

    @pytest.mark.parametrize("which", ["ttft_slo_ms", "tpot_slo_ms"])
    def test_generation_rejects_nan_slo(self, default_accel, which):
        from repro.serving import simulate_generation, summarize_generation

        result = simulate_generation(default_accel, [], 1)
        with pytest.raises(ValueError, match=which):
            summarize_generation(result, **{which: math.nan})

    def test_as_dict_round_trips_to_json(self, light_run):
        import json

        _, res = light_run
        d = summarize(res, slo_ms=5.0).as_dict()
        blob = json.loads(json.dumps(d))
        assert {"throughput_rps", "utilization",
                "latency_ms"} <= set(blob)
        assert {"p50", "p95", "p99"} <= set(blob["latency_ms"])

    def test_empty_run_emits_valid_json(self, default_accel):
        """Zero requests → NaN statistics must become null, not the
        literal NaN that strict JSON parsers reject."""
        import json

        d = summarize(simulate(default_accel, [], 2)).as_dict()
        blob = json.dumps(d)
        assert "NaN" not in blob
        parsed = json.loads(blob)
        assert parsed["latency_ms"]["p99"] is None
        assert parsed["total_requests"] == 0

    def test_render_report_mentions_models(self, light_run):
        _, res = light_run
        text = render_serving_report(summarize(res))
        assert "model2-lhc-trigger" in text and "Per-instance" in text


class TestCapacityPlanning:
    def test_plan_is_minimal_and_confirmed(self, default_accel):
        """plan_capacity returns a fleet size that a direct simulation
        confirms meets the p99 SLO, and one fewer instance misses it."""
        reqs = PoissonArrivals(3000, MIX, seed=1).generate(1000)
        plan = plan_capacity(default_accel, reqs, target_p99_ms=5.0)
        assert plan.meets_slo

        confirm = summarize(simulate(default_accel, reqs, plan.instances))
        assert confirm.p99_ms <= 5.0
        assert confirm.p99_ms == plan.report.p99_ms

        assert plan.instances > 1
        under = summarize(simulate(default_accel, reqs, plan.instances - 1))
        assert under.p99_ms > 5.0

    def test_plan_meets_target_qps(self, default_accel):
        reqs = PoissonArrivals(3000, MIX, seed=1).generate(1000)
        plan = plan_capacity(default_accel, reqs, target_p99_ms=5.0,
                             target_qps=3000)
        assert plan.report.throughput_rps >= 0.95 * 3000

    def test_probes_recorded_monotone_search(self, default_accel):
        reqs = PoissonArrivals(3000, MIX, seed=1).generate(1000)
        plan = plan_capacity(default_accel, reqs, target_p99_ms=5.0)
        assert plan.instances in plan.probes
        assert all(plan.probes[n] > 5.0 for n in plan.probes
                   if n < plan.instances)

    def test_infeasible_raises(self, default_accel):
        reqs = PoissonArrivals(3000, MIX, seed=1).generate(200)
        with pytest.raises(RuntimeError, match="no fleet"):
            plan_capacity(default_accel, reqs, target_p99_ms=1e-6,
                          max_instances=4)

    def test_nan_target_rejected(self, default_accel):
        """A NaN target used to die with a ``TypeError`` inside the
        analytic proposal."""
        reqs = PoissonArrivals(100, MIX, seed=0).generate(100)
        with pytest.raises(ValueError, match="target_p99_ms"):
            plan_capacity(default_accel, reqs, target_p99_ms=math.nan)

    def test_empty_workload_rejected(self, default_accel):
        with pytest.raises(ValueError):
            plan_capacity(default_accel, [], target_p99_ms=5.0)

    def test_render_capacity_plan(self, default_accel):
        reqs = PoissonArrivals(2000, MIX, seed=2).generate(500)
        plan = plan_capacity(default_accel, reqs, target_p99_ms=5.0)
        text = render_capacity_plan(plan)
        assert "Capacity plan" in text and str(plan.instances) in text


class TestCapacityPlanningErrorPaths:
    def test_empty_fleet_rejected(self, default_accel):
        """max_instances=0 is an empty search space: named error, not
        a probe loop that silently returns a 1-instance plan."""
        reqs = PoissonArrivals(100, MIX, seed=0).generate(200)
        with pytest.raises(ValueError, match="empty fleet"):
            plan_capacity(default_accel, reqs, target_p99_ms=50.0,
                          max_instances=0)

    def test_zero_instance_cluster_rejected(self, default_accel):
        from repro.serving import ClusterSimulator

        with pytest.raises(ValueError, match="at least one instance"):
            ClusterSimulator(default_accel, 0)

    def test_zero_capacity_instance_rejected(self):
        """An instance that can serve nothing (empty capability set)
        is a configuration error, not a silent dead instance."""
        from repro.sim import InstanceSpec

        with pytest.raises(ValueError, match="at least one model"):
            InstanceSpec(models=())

    def test_zero_slot_generation_cluster_rejected(self, default_accel):
        from repro.serving import GenerationClusterSimulator

        with pytest.raises(ValueError, match="sequence slot"):
            GenerationClusterSimulator(default_accel, 1, slots=0)
