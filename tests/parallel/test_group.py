"""PipelineGroup as a serving instance: duck typing + fleet tradeoffs."""

import pytest

from repro import ProTEA, SynthParams
from repro.nn import get_model
from repro.parallel import AURORA_64B66B, PipelineGroup
from repro.serving import (
    ModelMix,
    PoissonArrivals,
    plan_capacity,
    simulate,
    summarize,
)


@pytest.fixture(scope="module")
def accel():
    return ProTEA.synthesize(SynthParams())


@pytest.fixture(scope="module")
def requests():
    return PoissonArrivals(40, ModelMix("model3-efa-trans"),
                           seed=0).generate(2_000)


class TestDuckTyping:
    def test_protea_surface(self, accel):
        group = PipelineGroup(accel, n_devices=2)
        assert group.synth is accel.synth
        assert group.clock_mhz == accel.clock_mhz
        assert group.device is accel.device

    def test_program_then_config(self, accel):
        group = PipelineGroup(accel, n_devices=2)
        cfg = get_model("bert-variant")
        assert group.program(cfg) is group
        assert group.config is cfg

    def test_unprogrammed_config_raises(self, accel):
        with pytest.raises(RuntimeError, match="program"):
            PipelineGroup(accel, 2).config

    def test_latency_report_matches_plan(self, accel):
        group = PipelineGroup(accel, n_devices=4)
        cfg = get_model("bert-variant")
        rep = group.latency_report(cfg)
        plan = group.plan_for(cfg)
        assert rep.latency_ms == plan.latency_ms
        assert rep.total_cycles == plan.fill_cycles
        assert rep.latency_s == pytest.approx(plan.latency_ms / 1e3)

    def test_plan_cache_is_exact(self, accel):
        group = PipelineGroup(accel, n_devices=2)
        cfg = get_model("bert-variant")
        assert group.plan_for(cfg) is group.plan_for(cfg)

    def test_validation(self, accel):
        with pytest.raises(ValueError):
            PipelineGroup(accel, 0)


class TestServingIntegration:
    def test_group_runs_in_cluster_simulator(self, accel, requests):
        group = PipelineGroup(accel, n_devices=2)
        result = simulate(group, requests, n_instances=2)
        report = summarize(result)
        assert report.total_requests == len(requests)
        assert report.p50_ms <= report.p99_ms

    def test_pipelining_cuts_serving_latency(self, accel, requests):
        """Groups serve each request faster than a lone device, so the
        same workload sees lower p99 from 2 x (2-deep group) than from
        2 x (1 device)."""
        singles = summarize(simulate(
            PipelineGroup(accel, n_devices=1), requests, n_instances=2))
        groups = summarize(simulate(
            PipelineGroup(accel, n_devices=2), requests, n_instances=2))
        assert groups.p99_ms < singles.p99_ms

    def test_plan_capacity_trades_depth_for_replicas(self, accel, requests):
        """A fixed budget of 4 devices: capacity planning over deeper
        groups needs fewer replicas to meet the same SLO."""
        shallow = plan_capacity(PipelineGroup(accel, n_devices=1),
                                requests, target_p99_ms=60.0)
        deep = plan_capacity(PipelineGroup(accel, n_devices=2),
                             requests, target_p99_ms=60.0)
        assert deep.instances <= shallow.instances
        assert deep.report.p99_ms <= 60.0

    def test_group_serves_model_too_large_for_one_device(self, accel):
        """num_layers beyond max_layers: unservable alone, served by a
        deep-enough group (each stage programs only its slice)."""
        from repro.isa import ResynthesisRequiredError

        big = get_model("bert-variant").with_(name="b24", num_layers=24)
        with pytest.raises(ResynthesisRequiredError):
            accel.program(big)
        group = PipelineGroup(accel, n_devices=4, link=AURORA_64B66B)
        group.program(big)
        assert group.latency_ms(big) > 0

    def test_summary_mentions_fabric(self, accel):
        text = PipelineGroup(accel, n_devices=4).summary()
        assert "4 x" in text and "aurora" in text
