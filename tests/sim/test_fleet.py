"""Heterogeneous fleets: specs, the CLI grammar, capability dispatch,
speed scaling, and the PipelineGroup mixed-fleet adapter."""

import pytest

from repro.nn import get_model
from repro.parallel import PipelineGroup
from repro.serving import ModelMix, PoissonArrivals, summarize
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.serving.workload import (GenerationRequest, LengthSampler,
                                    attach_generation_lengths)
from repro.sim import FleetSpec, InstanceSpec

from .._events import run_events

MIX = ModelMix("model2-lhc-trigger")
MIX2 = ModelMix({"model2-lhc-trigger": 2.0, "model1-peng-isqed21": 1.0})


def _reqs(qps=400, seed=3, duration=800, mix=MIX):
    return PoissonArrivals(qps, mix, seed=seed).generate(duration)


class TestSpecs:
    def test_uniform_repeats_the_default_spec(self):
        fleet = FleetSpec.uniform(3)
        assert fleet.n == 3 and fleet.specs == (InstanceSpec(),) * 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one instance"):
            FleetSpec(())
        with pytest.raises(ValueError, match="speed must be positive"):
            InstanceSpec(speed=0.0)
        with pytest.raises(ValueError, match="at least one model"):
            InstanceSpec(models=())
        with pytest.raises(ValueError, match="slots must be >= 1"):
            InstanceSpec(slots=0)

    @pytest.mark.parametrize("kwargs, needle", [
        (dict(speed=float("inf")), "speed"),
        (dict(speed=float("nan")), "speed"),
        (dict(speed=-float("inf")), "speed"),
        (dict(reprogram_latency_ms=float("inf")), "reprogram_latency_ms"),
        (dict(reprogram_latency_ms=float("nan")), "reprogram_latency_ms"),
    ])
    def test_non_finite_rejected(self, kwargs, needle):
        with pytest.raises(ValueError, match=f"{needle} .*finite"):
            InstanceSpec(**kwargs)

    @pytest.mark.parametrize("text", ["inf", "nan", "1e309x2", "1.0,nan"])
    def test_parse_rejects_non_finite_speed(self, text):
        with pytest.raises(ValueError, match="speed .*finite"):
            FleetSpec.parse(text)

    def test_parse_grammar(self):
        fleet = FleetSpec.parse("1.0x2,0.5/16@model2-lhc-trigger+bert-variant")
        assert fleet.n == 3
        assert fleet.specs[0] == fleet.specs[1] == InstanceSpec()
        third = fleet.specs[2]
        assert third.speed == 0.5 and third.slots == 16
        assert third.models == ("model2-lhc-trigger", "bert-variant")
        assert FleetSpec.parse(fleet.describe()) == fleet  # round-trips

    @pytest.mark.parametrize("bad", ["", "fast", "1.0x0", "1.0/x2"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            FleetSpec.parse(bad)


class TestHeterogeneousServe:
    def test_slow_instance_takes_longer_per_batch(self, default_accel):
        """speed=0.5 doubles a batch's service time exactly."""
        reqs = [r for r in _reqs(qps=100, duration=400)]
        fast = ClusterSimulator(default_accel, 1).run(reqs)
        slow = ClusterSimulator(
            default_accel,
            fleet=FleetSpec((InstanceSpec(speed=0.5),))).run(reqs)
        for a, b in zip(fast.records, slow.records):
            assert (b.t_complete_ms - b.t_dispatch_ms) == pytest.approx(
                2 * (a.t_complete_ms - a.t_dispatch_ms))

    def test_capability_pinning_respected(self, default_accel):
        """A pinned instance only ever serves its capability set."""
        fleet = FleetSpec.parse("1.0x2,1.0@model1-peng-isqed21")
        res = ClusterSimulator(
            default_accel, fleet=fleet).run(_reqs(mix=MIX2))
        assert all(r.model == "model1-peng-isqed21"
                   for r in res.records if r.instance == 2)
        # Unpinned instances still serve everything that remains.
        assert {r.model for r in res.records} == \
               {"model2-lhc-trigger", "model1-peng-isqed21"}

    def test_unservable_model_raises(self, default_accel):
        """Every instance pinned away from the request's model."""
        fleet = FleetSpec((InstanceSpec(models=("bert-variant",)),))
        sim = ClusterSimulator(default_accel, fleet=fleet)
        with pytest.raises(ValueError, match="no instance in the fleet"):
            sim.run(_reqs(qps=50, duration=100))

    def test_per_instance_reprogram_override(self, default_accel):
        """One instance with free switches, one with expensive ones."""
        fleet = FleetSpec((
            InstanceSpec(reprogram_latency_ms=0.0),
            InstanceSpec(reprogram_latency_ms=7.0),
        ))
        res = ClusterSimulator(
            default_accel, fleet=fleet, scheduler="round-robin",
            reprogram_latency_ms=99.0).run(_reqs(mix=MIX2, qps=200,
                                                 duration=400))
        inst0, inst1 = res.instances
        assert inst0.reprogram_time_ms == 0.0
        assert inst1.reprogram_time_ms == 7.0 * inst1.switch_count

    def test_serve_rejects_slot_specs(self, default_accel):
        """/SLOTS is a generation knob; serve mode must say so rather
        than silently dropping it."""
        fleet = FleetSpec((InstanceSpec(slots=4),))
        sim = ClusterSimulator(default_accel, fleet=fleet)
        with pytest.raises(ValueError, match="generate-mode only"):
            sim.run(_reqs(qps=50, duration=100))

    def test_n_instances_fleet_mismatch_rejected(self, default_accel):
        with pytest.raises(ValueError, match="contradicts"):
            ClusterSimulator(default_accel, 3,
                             fleet=FleetSpec.uniform(2))
        with pytest.raises(ValueError, match="n_instances or a FleetSpec"):
            ClusterSimulator(default_accel)


class TestPipelineGroupAdapter:
    def test_mixed_fleet_prices_through_the_group(self, default_accel):
        """A fleet mixing a PipelineGroup with a plain replica: the
        group instance's service time is the pipeline fill latency."""
        group = PipelineGroup(default_accel, n_devices=2)
        fleet = FleetSpec((InstanceSpec(), InstanceSpec(target=group)))
        cfg = get_model("model2-lhc-trigger")
        reqs = _reqs(qps=300, duration=500)
        res = ClusterSimulator(default_accel, fleet=fleet).run(reqs)
        single_ms = default_accel.latency_report(cfg).latency_ms
        group_ms = group.latency_report(cfg).latency_ms
        for rec in res.records:
            if rec.batch_size != 1:
                continue
            expected = single_ms if rec.instance == 0 else group_ms
            assert (rec.t_complete_ms - rec.t_dispatch_ms
                    == pytest.approx(expected))
        assert {r.instance for r in res.records} == {0, 1}

    def test_group_instance_keeps_speed_and_models(self, default_accel):
        """A group target composes with the spec's other capabilities:
        it serves only its pinned model, at its speed multiple."""
        group = PipelineGroup(default_accel, n_devices=2)
        pinned = "model2-lhc-trigger"
        fleet = FleetSpec((InstanceSpec(),
                           InstanceSpec(target=group, speed=2.0,
                                        models=(pinned,))))
        reqs = _reqs(qps=300, duration=500, mix=MIX2)
        res = ClusterSimulator(default_accel, fleet=fleet).run(reqs)
        group_ms = group.latency_report(get_model(pinned)).latency_ms
        on_group = [r for r in res.records if r.instance == 1]
        assert on_group and all(r.model == pinned for r in on_group)
        for rec in on_group:
            if rec.batch_size == 1:
                assert (rec.t_complete_ms - rec.t_dispatch_ms
                        == pytest.approx(group_ms / 2.0))

    def test_generation_rejects_targets(self, default_accel):
        group = PipelineGroup(default_accel, 2)
        fleet = FleetSpec((InstanceSpec(target=group),))
        sim = GenerationClusterSimulator(default_accel, fleet=fleet)
        with pytest.raises(ValueError, match="serve-mode only"):
            sim.run([GenerationRequest(rid=0, t_ms=0.0,
                                       model="model2-lhc-trigger",
                                       prompt_tokens=4,
                                       output_tokens=2)])


class TestHeterogeneousGeneration:
    def test_per_instance_slots(self, default_accel):
        """A /SLOTS override caps in-flight sequences per instance."""
        fleet = FleetSpec((InstanceSpec(slots=1),))
        arrivals = PoissonArrivals(40, MIX, seed=9).generate(300)
        reqs = attach_generation_lengths(
            arrivals, LengthSampler("fixed", 8), LengthSampler("fixed", 8),
            max_total=default_accel.synth.max_seq_len)
        _, events = run_events(GenerationClusterSimulator(
            default_accel, fleet=fleet, slots=8).run, reqs)
        # With one slot, every step carries at most one sequence:
        # admitted + decoding <= 1 for every step event.
        steps = [ev for ev in events if ev[0] == "step"]
        assert steps
        assert all(ev[4] + ev[5] <= 1 for ev in steps)

    def test_speed_scales_step_duration(self, default_accel):
        req = [GenerationRequest(rid=0, t_ms=0.0,
                                 model="model2-lhc-trigger",
                                 prompt_tokens=8, output_tokens=4)]
        fast = GenerationClusterSimulator(default_accel, 1).run(req)
        slow = GenerationClusterSimulator(
            default_accel,
            fleet=FleetSpec((InstanceSpec(speed=0.5),))).run(req)
        assert slow.records[0].latency_ms == pytest.approx(
            2 * fast.records[0].latency_ms)
