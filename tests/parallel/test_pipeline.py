"""Tests for pipeline planning: exactness, scaling, timelines."""

import pytest

from repro import ProTEA, SynthParams
from repro.isa import ResynthesisRequiredError
from repro.nn import MODEL_ZOO, get_model
from repro.parallel import (
    AURORA_64B66B,
    InterconnectLink,
    PipelinePartitioner,
)


@pytest.fixture(scope="module")
def accel():
    return ProTEA.synthesize(SynthParams())


@pytest.fixture(scope="module")
def partitioner(accel):
    return PipelinePartitioner(accel, AURORA_64B66B)


class TestSingleDeviceExactness:
    def test_k1_reproduces_latency_model(self, accel, partitioner):
        """Acceptance property: a K=1 'pipeline' is bit-identical to the
        single-device analytic model for every zoo workload."""
        for name, cfg in MODEL_ZOO.items():
            plan = partitioner.plan(cfg, 1)
            rep = accel.latency_report(cfg)
            assert plan.fill_cycles == rep.total_cycles, name
            assert plan.latency_ms == pytest.approx(rep.latency_ms), name
            assert plan.link_cycles == 0
            assert plan.interconnect_cycles == 0
            assert plan.num_stages == 1 and plan.n_devices == 1


class TestPipelineScaling:
    def test_balanced_4_stage_beats_single_device(self, accel, partitioner):
        """Acceptance property: steady-state throughput of a balanced
        4-stage split strictly beats one device."""
        cfg = get_model("bert-variant")  # 12 layers -> 3 per stage
        p1 = partitioner.plan(cfg, 1)
        p4 = partitioner.plan(cfg, 4)
        assert all(b == 0 for b in p4.bubble_cycles)  # balanced
        assert (p4.steady_state_inf_per_s
                > p1.steady_state_inf_per_s)
        # Near-ideal: the link is microseconds against ~50ms stages.
        assert p4.speedup_over(p1.bottleneck_cycles) > 3.9

    def test_fill_exceeds_single_device_only_by_interconnect(
            self, partitioner):
        cfg = get_model("bert-variant")
        p1 = partitioner.plan(cfg, 1)
        p4 = partitioner.plan(cfg, 4)
        assert p4.fill_cycles == p1.fill_cycles + p4.interconnect_cycles

    def test_uneven_split_reports_bubbles(self, partitioner):
        """12 layers on 5 stages: 3+3+2+2+2 — the 2-layer stages idle."""
        cfg = get_model("bert-variant")
        plan = partitioner.plan(cfg, 5)
        sizes = sorted(s.num_layers for s in plan.stages)
        assert sizes == [2, 2, 2, 3, 3]
        assert max(plan.bubble_cycles) > 0
        assert plan.bubble_fraction > 0
        # Bubbles live exactly on the short stages.
        for stage, bubble in zip(plan.stages, plan.bubble_cycles):
            assert (bubble > 0) == (stage.num_layers == 2)

    def test_slow_link_can_become_the_bottleneck(self, accel):
        """A tiny model on a slow fabric: the boundary transfer beats
        the per-stage compute and caps throughput."""
        lame = PipelinePartitioner(
            accel, InterconnectLink(
                name="lame", bandwidth_gbps=0.01, latency_us=500.0))
        cfg = get_model("model3-efa-trans")
        plan = lame.plan(cfg, 2)
        assert plan.bottleneck_cycles == plan.link_cycles
        assert plan.bottleneck_cycles > max(plan.stage_cycles)


class TestValidation:
    def test_more_stages_than_layers_rejected(self, partitioner):
        cfg = get_model("model3-efa-trans")  # 2 layers
        with pytest.raises(ValueError, match="cannot pipeline"):
            partitioner.plan(cfg, 4, tp_ways=1)

    def test_indivisible_device_count_rejected(self, partitioner):
        cfg = get_model("bert-variant")
        with pytest.raises(ValueError, match="divisible"):
            partitioner.plan(cfg, 4, tp_ways=3)

    def test_oversized_stage_raises_resynthesis(self, accel, partitioner):
        """A 24-layer model on 1 device exceeds max_layers=12."""
        big = get_model("bert-variant").with_(name="b24", num_layers=24)
        with pytest.raises(ResynthesisRequiredError):
            partitioner.plan(big, 1)
        # ... but 2 stages of 12 are exactly programmable.
        plan = partitioner.plan(big, 2)
        assert [s.num_layers for s in plan.stages] == [12, 12]

    def test_zero_devices_rejected(self, partitioner):
        with pytest.raises(ValueError):
            partitioner.plan(get_model("bert-variant"), 0)


class TestBestPlan:
    def test_shallow_model_recovers_scaling_via_tp(self, partitioner):
        """2 layers cannot pipeline 4-deep; best_plan finds 2 x tp2."""
        cfg = get_model("model3-efa-trans")
        plan = partitioner.best_plan(cfg, 4)
        assert plan.num_stages == 2
        assert plan.stages[0].tp_ways == 2
        assert plan.n_devices == 4

    def test_best_plan_never_worse_than_pure_pipeline(self, partitioner):
        cfg = get_model("bert-variant")
        best = partitioner.best_plan(cfg, 4)
        pure = partitioner.plan(cfg, 4, tp_ways=1)
        assert (best.steady_state_inf_per_s
                >= pure.steady_state_inf_per_s)

    def test_latency_objective_prefers_tensor_splits(self, partitioner):
        """Pipelining never shortens one request's path; head splits do.
        The two objectives therefore pick different shapes."""
        cfg = get_model("bert-variant")
        tput = partitioner.best_plan(cfg, 4, objective="throughput")
        lat = partitioner.best_plan(cfg, 4, objective="latency")
        assert tput.num_stages == 4          # deep pipeline
        assert lat.stages[0].tp_ways == 4    # wide tensor split
        assert lat.fill_cycles < tput.fill_cycles
        assert tput.bottleneck_cycles < lat.bottleneck_cycles

    def test_unknown_objective_rejected(self, partitioner):
        with pytest.raises(ValueError, match="objective"):
            partitioner.best_plan(get_model("bert-variant"), 2,
                                  objective="vibes")

    def test_infeasible_count_raises_with_context(self, partitioner):
        cfg = get_model("model2-lhc-trigger")  # 1 layer, 2 heads
        with pytest.raises(ValueError, match="no feasible"):
            partitioner.best_plan(cfg, 8)  # needs tp=8 > 2 heads

    def test_scaling_curve_skips_infeasible(self, partitioner):
        cfg = get_model("model2-lhc-trigger")  # caps at 1 stage x tp2
        curve = partitioner.scaling_curve(cfg, (1, 2, 8))
        assert sorted(curve) == [1, 2]


class TestTimeline:
    def test_single_item_matches_fill(self, partitioner):
        cfg = get_model("bert-variant")
        plan = partitioner.plan(cfg, 4)
        assert plan.timeline(1).total_cycles == plan.fill_cycles

    def test_stream_matches_batch_formula(self, partitioner):
        """With compute-bound stages the schedule's makespan equals the
        closed-form fill + (n-1) x period."""
        cfg = get_model("bert-variant")
        plan = partitioner.plan(cfg, 4)
        tl = plan.timeline(6)
        assert (tl.total_cycles
                == plan.fill_cycles + 5 * plan.bottleneck_cycles)

    @pytest.mark.parametrize("n_items", [2, 3, 17])
    def test_makespan_adds_one_period_per_item(self, partitioner, n_items):
        plan = partitioner.plan(get_model("bert-variant"), 4)
        assert (plan.timeline(n_items).total_cycles
                == plan.fill_cycles
                + (n_items - 1) * plan.bottleneck_cycles)

    def test_resources_cover_devices_and_links(self, partitioner):
        cfg = get_model("bert-variant")
        plan = partitioner.plan(cfg, 4)
        tl = plan.timeline(2)
        resources = {e.resource for e in tl.events}
        assert {"fpga0", "fpga1", "fpga2", "fpga3"} <= resources
        assert {"link0-1", "link1-2", "link2-3"} <= resources

    def test_gantt_renders(self, partitioner):
        cfg = get_model("bert-variant")
        chart = partitioner.plan(cfg, 4).timeline(3).gantt()
        assert "fpga0" in chart and "link0-1" in chart and "#" in chart

    def test_events_never_overlap_per_resource(self, partitioner):
        cfg = get_model("bert-variant")
        tl = partitioner.plan(cfg, 3).timeline(5)
        by_res = {}
        for e in tl.events:
            by_res.setdefault(e.resource, []).append(e)
        for events in by_res.values():
            events.sort(key=lambda e: e.start)
            for a, b in zip(events, events[1:]):
                assert a.end <= b.start

    def test_validation(self, partitioner):
        plan = partitioner.plan(get_model("bert-variant"), 2)
        with pytest.raises(ValueError):
            plan.timeline(0)


class TestAsDict:
    def test_acceptance_fields_present(self, partitioner):
        """The CLI JSON carries every acceptance-criteria quantity."""
        plan = partitioner.plan(get_model("bert-variant"), 4)
        blob = plan.as_dict()
        assert [s["layers"] for s in blob["stages"]] == [
            [0, 3], [3, 6], [6, 9], [9, 12]]
        assert all(s["cycles"] > 0 for s in blob["stages"])
        assert blob["interconnect"]["cycles_per_boundary"] > 0
        assert blob["fill"]["ms"] == pytest.approx(plan.fill_ms)
        assert blob["steady_state"]["inf_per_s"] == pytest.approx(
            plan.steady_state_inf_per_s)


class TestDecodeMode:
    def test_stage_cycles_follow_layer_split(self, accel, partitioner):
        cfg = get_model("bert-variant")
        rep = partitioner.decode_report(cfg, 4, prompt_len=32,
                                        output_len=32)
        per_layer = accel.latency_model.decode_layer_cycles(
            rep.cache_len, cfg.d_model, cfg.num_heads).total
        assert sum(rep.stage_cycles) == cfg.num_layers * per_layer
        assert rep.num_stages == 4

    def test_steady_beats_sequential_with_stages(self, partitioner):
        rep = partitioner.decode_report(get_model("bert-variant"), 4,
                                        prompt_len=16, output_len=16)
        assert rep.steady_tokens_per_s > rep.sequential_tokens_per_s
        assert rep.per_token_ms > 0 and rep.ttft_ms > 0

    def test_single_device_degenerates(self, accel, partitioner):
        cfg = get_model("bert-variant")
        rep = partitioner.decode_report(cfg, 1, prompt_len=16,
                                        output_len=16)
        assert rep.link_cycles == 0
        assert rep.num_stages == 1
        per_layer = accel.latency_model.decode_layer_cycles(
            rep.cache_len, cfg.d_model, cfg.num_heads).total
        assert rep.per_token_cycles == cfg.num_layers * per_layer
        assert rep.steady_tokens_per_s == pytest.approx(
            rep.sequential_tokens_per_s)

    def test_ttft_is_pipelined_prefill(self, partitioner):
        cfg = get_model("bert-variant")
        rep = partitioner.decode_report(cfg, 4, prompt_len=32,
                                        output_len=8)
        plan = partitioner.plan(cfg.with_(seq_len=32), 4, tp_ways=1)
        assert rep.prefill_fill_cycles == plan.fill_cycles
        assert rep.ttft_ms == pytest.approx(plan.fill_ms)

    def test_capacity_and_argument_validation(self, accel, partitioner):
        cfg = get_model("bert-variant")
        with pytest.raises(ResynthesisRequiredError):
            partitioner.decode_report(cfg, 2,
                                      prompt_len=accel.synth.max_seq_len,
                                      output_len=1)
        with pytest.raises(ValueError):
            partitioner.decode_report(cfg, 2, prompt_len=0, output_len=4)

    def test_as_dict_round_trips(self, partitioner):
        import json

        rep = partitioner.decode_report(get_model("bert-variant"), 2,
                                        prompt_len=8, output_len=8)
        blob = json.loads(json.dumps(rep.as_dict()))
        assert blob["pipeline_stages"] == 2
        assert blob["steady_tokens_per_s"] > 0
