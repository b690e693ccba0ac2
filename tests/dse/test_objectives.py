"""Tests for the standard ProTEA evaluator and its canonical space."""

import pytest

from repro.dse import (
    DEFAULT_OBJECTIVE_NAMES,
    OBJECTIVES,
    evaluate_point,
    explore,
    get_objectives,
    standard_space,
)

FAST = {"qps": 100.0, "duration_ms": 100.0, "seed": 0}


def _point(**overrides):
    point = {"model": "model2-lhc-trigger", "tiles_mha": 12, "tiles_ffn": 6,
             "format": "fix8", "devices": 1, "fleet": 1,
             "scheduler": "least-loaded"}
    point.update(overrides)
    return point


class TestStandardSpace:
    def test_axes(self):
        space = standard_space()
        assert space.names == ("model", "tiles_mha", "tiles_ffn", "format",
                               "devices", "fleet", "scheduler")

    def test_unknown_model_rejected_eagerly(self):
        with pytest.raises(KeyError):
            standard_space(models=("not-a-model",))


class TestGetObjectives:
    def test_default_has_at_least_three(self):
        names = [o.name for o in get_objectives()]
        assert tuple(names) == DEFAULT_OBJECTIVE_NAMES
        assert len(names) >= 3

    def test_subset_and_order_respected(self):
        objs = get_objectives(("power_w", "latency_ms"))
        assert [o.name for o in objs] == ["power_w", "latency_ms"]

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown objective"):
            get_objectives(("latency_ms", "carbon"))


class TestEvaluatePoint:
    def test_feasible_point_scores_all_objectives(self):
        metrics = evaluate_point(_point(), FAST)
        for obj in OBJECTIVES:
            assert obj.name in metrics, obj.name
            if obj.name in ("alert_minutes", "budget_burn"):
                # A healthy run legitimately scores zero alert time.
                assert metrics[obj.name] >= 0, obj.name
            else:
                assert metrics[obj.name] > 0, obj.name
        assert metrics["util_pct"] <= 100.0
        assert metrics["clock_mhz"] == pytest.approx(200.0)
        assert metrics["n_fpgas"] == 1

    def test_published_tiles_beat_worse_tiles_on_latency(self):
        best = evaluate_point(_point(tiles_mha=12, tiles_ffn=6), FAST)
        worse = evaluate_point(_point(tiles_mha=48, tiles_ffn=6), FAST)
        assert best["latency_ms"] < worse["latency_ms"]

    def test_infeasible_tiles_raise(self):
        with pytest.raises(ValueError, match="does not fit"):
            evaluate_point(_point(tiles_mha=6, tiles_ffn=3), FAST)

    def test_fix16_costs_more_area(self):
        fix8 = evaluate_point(_point(), FAST)
        fix16 = evaluate_point(_point(format="fix16", tiles_mha=48), FAST)
        assert fix16["util_pct"] > 0
        assert fix8["util_pct"] <= 100.0

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="unknown datapath format"):
            evaluate_point(_point(format="int4"), FAST)

    def test_fleet_scales_throughput_and_power(self):
        one = evaluate_point(_point(), FAST)
        two = evaluate_point(_point(fleet=2), FAST)
        assert two["throughput_inf_s"] == pytest.approx(
            2 * one["throughput_inf_s"])
        assert two["power_w"] == pytest.approx(2 * one["power_w"])
        assert two["n_fpgas"] == 2

    def test_partitioned_point_uses_pipeline(self):
        single = evaluate_point(_point(model="bert-variant"), FAST)
        split = evaluate_point(_point(model="bert-variant", devices=2), FAST)
        assert split["n_fpgas"] == 2
        # Steady-state throughput improves; fill latency does not worsen.
        assert split["throughput_inf_s"] > single["throughput_inf_s"]
        assert split["power_w"] > single["power_w"]

    def test_workload_settings_affect_p99(self):
        light = evaluate_point(_point(model="bert-variant"),
                               {"qps": 2.0, "duration_ms": 1000.0})
        heavy = evaluate_point(_point(model="bert-variant"),
                               {"qps": 50.0, "duration_ms": 1000.0})
        assert heavy["p99_ms"] > light["p99_ms"]

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="zero requests"):
            evaluate_point(_point(), {"qps": 0.001, "duration_ms": 1.0})

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(_point(devices=0), FAST)


class TestEndToEnd:
    def test_standard_space_explore_smoke(self):
        space = standard_space(models=("model2-lhc-trigger",),
                               tiles_mha=(12, 48), tiles_ffn=(6,))
        result = explore(space, evaluate_point,
                         objectives=get_objectives(), settings=FAST)
        assert len(result.results) == 2
        assert all(r.ok for r in result.results)
        assert 1 <= len(result.frontier) <= 2
        # The frontier spans >= 3 objective dimensions.
        assert len(result.frontier[0].objectives) >= 3


class TestGenerationObjectives:
    def test_generation_metrics_present_and_sane(self):
        metrics = evaluate_point(_point(), FAST)
        assert metrics["ttft_p99_ms"] > 0
        assert metrics["tokens_per_s"] > 0

    def test_generation_objectives_selectable(self):
        objs = get_objectives(("ttft_p99_ms", "tokens_per_s"))
        assert [o.name for o in objs] == ["ttft_p99_ms", "tokens_per_s"]
        assert objs[0].goal == "min" and objs[1].goal == "max"

    def test_partitioned_point_scores_generation(self):
        metrics = evaluate_point(_point(model="bert-variant", devices=2),
                                 FAST)
        assert metrics["ttft_p99_ms"] > 0
        assert metrics["tokens_per_s"] > 0

    def test_pipeline_infeasible_decode_degrades_gracefully(self):
        """A 1-layer model on 2 devices has no pure-pipeline decode
        split; the point must still score (single-device decode path),
        not error out."""
        metrics = evaluate_point(_point(devices=2), FAST)
        assert metrics["tokens_per_s"] > 0

    def test_fleet_scales_generation_tokens(self):
        one = evaluate_point(_point(devices=2, model="bert-variant"), FAST)
        two = evaluate_point(_point(devices=2, model="bert-variant",
                                    fleet=2), FAST)
        assert two["tokens_per_s"] == pytest.approx(
            2 * one["tokens_per_s"])

    def test_gen_objectives_gate_skips_simulation(self):
        metrics = evaluate_point(_point(), dict(FAST,
                                                gen_objectives=False))
        assert "ttft_p99_ms" not in metrics
        assert "tokens_per_s" not in metrics
        assert metrics["latency_ms"] > 0  # rest of the point unaffected

    def test_unscoreable_generation_corner_raises(self):
        """devices>1 with no pipeline decode split AND a model too big
        for one device must raise (an error record), never emit NaN
        objectives that would be undominatable on a frontier."""
        from repro.core import ProTEA
        from repro.dse.objectives import _generation_metrics
        from repro.isa import SynthParams
        from repro.nn import TransformerConfig

        accel = ProTEA.synthesize(SynthParams(max_layers=2))
        cfg = TransformerConfig(name="too-deep", d_model=64, num_heads=2,
                                num_layers=3, seq_len=16)
        with pytest.raises(ValueError, match="unscoreable"):
            _generation_metrics(accel, cfg, devices=4, fleet=1,
                                opts=dict(FAST, link="aurora",
                                          gen_prompt=8, gen_output=8,
                                          gen_slots=2, gen_qps=20.0))


class TestWatchObjectives:
    def test_watch_metrics_present_and_nonnegative(self):
        metrics = evaluate_point(_point(), FAST)
        assert metrics["alert_minutes"] >= 0
        assert metrics["budget_burn"] >= 0

    def test_watch_objectives_selectable(self):
        objs = get_objectives(("alert_minutes", "budget_burn"))
        assert [o.goal for o in objs] == ["min", "min"]

    def test_watch_gate_skips_watchdog(self):
        metrics = evaluate_point(_point(), dict(FAST,
                                                watch_objectives=False))
        assert "alert_minutes" not in metrics
        assert "budget_burn" not in metrics
        assert metrics["availability"] > 0  # failure run still scored

    def test_watch_without_fail_objectives_still_scores(self):
        """The watchdog rides the failure-injected rerun, so selecting
        only watch objectives must still trigger that run."""
        metrics = evaluate_point(_point(), dict(FAST,
                                                fail_objectives=False))
        assert "availability" not in metrics
        assert metrics["budget_burn"] >= 0

    def test_tighter_slo_burns_more_budget(self):
        loose = evaluate_point(_point(), dict(FAST, watch_slo_ms=50.0))
        tight = evaluate_point(_point(), dict(FAST, watch_slo_ms=0.01))
        assert tight["budget_burn"] >= loose["budget_burn"]
        assert tight["budget_burn"] > 0

    def test_watch_metrics_deterministic(self):
        a = evaluate_point(_point(), FAST)
        b = evaluate_point(_point(), FAST)
        assert a["alert_minutes"] == b["alert_minutes"]
        assert a["budget_burn"] == b["budget_burn"]


class TestArrivalsMemo:
    """The bounded per-process memo of seeded evaluation workloads."""

    def test_equals_fresh_generation_and_is_shared(self):
        from repro.dse.objectives import _arrivals
        from repro.serving import ModelMix, PoissonArrivals

        first = _arrivals(300.0, "model2-lhc-trigger", 5, 120.0)
        fresh = PoissonArrivals(300.0, ModelMix("model2-lhc-trigger"),
                                seed=5).generate(120.0)
        assert list(first) == fresh
        assert _arrivals(300.0, "model2-lhc-trigger", 5, 120.0) is first
        assert list(_arrivals(300.0, "model2-lhc-trigger", 6, 120.0)) != fresh

    def test_stays_within_its_bound(self):
        from repro.dse import objectives
        from repro.serving import ModelMix, PoissonArrivals

        bound = objectives._ARRIVALS_MEMO_MAX
        for seed in range(3 * bound):
            got = objectives._arrivals(50.0, "model2-lhc-trigger", seed, 40.0)
            assert len(objectives._ARRIVALS_MEMO) <= bound
            assert list(got) == PoissonArrivals(
                50.0, ModelMix("model2-lhc-trigger"),
                seed=seed).generate(40.0)
        newest = (50.0, "model2-lhc-trigger", 3 * bound - 1, 40.0)
        assert newest in objectives._ARRIVALS_MEMO
        assert (50.0, "model2-lhc-trigger", 0, 40.0) not in (
            objectives._ARRIVALS_MEMO)
