"""Observer/profiler hooks end to end: kernel, engines, DSE, composition.

The headline property — instrumented runs are byte-identical to bare
ones on the six golden scenarios — is pinned in
``tests/sim/test_trace_identity.py``; these tests cover the hook
mechanics (attach rules, composition, finish flushing) and the failure
paths the goldens don't reach.
"""

from types import SimpleNamespace

import pytest

from repro.dse import Axis, EvalCache, Objective, SearchSpace, explore
from repro.obs import KernelProfiler, MetricsSampler, TraceRecorder, compose
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.sim import FailurePlan
from repro.sim.kernel import Simulation

MIX = ModelMix({"model2-lhc-trigger": 2.0, "model1-peng-isqed21": 1.0})


def _ticks(*times):
    """A pre-sorted arrival stream for ``Simulation._drain_merged``."""
    return [SimpleNamespace(t_ms=t) for t in times]


class TestKernelHooks:
    """Hook mechanics on the kernel's merged drain, driven with an
    arrival stream and an engine-style ``handle`` switch."""

    def test_attach_observer_mid_run_raises(self):
        sim = Simulation()
        caught = []

        def handle(payload, now):
            with pytest.raises(RuntimeError, match="mid-run"):
                sim.attach_observer(lambda e: None)
            caught.append(True)

        sim.queue.push(1.0, 0, ("tick",))
        sim._drain_merged((), None, handle, 0)
        assert caught

    def test_attach_profiler_mid_run_raises(self):
        sim = Simulation()
        caught = []

        def on_arrival(req, now):
            with pytest.raises(RuntimeError, match="mid-run"):
                sim.attach_profiler(KernelProfiler())
            caught.append(True)

        sim._drain_merged(_ticks(1.0), on_arrival, None, 0)
        assert caught

    def test_double_attach_composes_and_finish_fans_out(self):
        sim = Simulation()
        seen_a, seen_b, finished = [], [], []
        sim.attach_observer(seen_a.append)

        class B:
            def __call__(self, event):
                seen_b.append(event)

            def finish(self, t_ms):
                finished.append(t_ms)

        sim.attach_observer(B())

        def on_arrival(req, now):
            sim.observer(("x", now))

        sim._drain_merged(_ticks(1.0, 7.0), on_arrival, None, 0)
        assert seen_a == seen_b == [("x", 1.0), ("x", 7.0)]
        assert finished == [7.0]

    def test_profiler_sees_every_dispatched_event(self):
        sim = Simulation()
        profiler = KernelProfiler()
        sim.attach_profiler(profiler)
        for t in range(5):
            sim.queue.push(float(t), 0, ("tick",))
        sim.queue.push(9.0, 0, ("tock",))
        sim._drain_merged(_ticks(0.5, 2.5, 20.0),
                          lambda req, now: None,
                          lambda payload, now: None, 0)
        assert profiler.counts == {"tick": 5, "tock": 1, "arrival": 3}
        assert all(v >= 0.0 for v in profiler.wall_s.values())


class TestComposeHelper:
    def test_compose_drops_nones_and_unwraps_singles(self):
        assert compose(None, None) is None
        tracer = TraceRecorder()
        assert compose(None, tracer, None) is tracer

    def test_composite_forwards_events_and_finish(self):
        tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=50.0)
        both = compose(tracer, sampler)
        both(("arrive", 1.0, 0, "m", 0))
        assert len(tracer.events) == 2  # thread-name meta + instant
        assert sampler.registry.counters["arrivals"].value == 1
        both.finish(2.0)
        assert sampler.registry.series[-1]["t_ms"] == 2.0

    def test_composite_feeds_every_part_each_event_in_order(self):
        log = []

        class Aliased:  # the stock observers' shape
            def on_event(self, event):
                log.append(("aliased", event))

            __call__ = on_event

        class Plain:
            def __call__(self, event):
                log.append(("plain", event))

        def function(event):
            log.append(("function", event))

        tail = []
        both = compose(Aliased(), Plain(), function,
                       compose(tail.append, Plain()))
        events = [("arrive", 1.0, 0, "m", 0), ("finish", 2.0, 0),
                  ("arrive", 3.0, 1, "m", 0)]
        for event in events:
            both(event)
        assert log == [(name, e) for e in events
                       for name in ("aliased", "plain", "function",
                                    "plain")]
        assert tail == events


class TestServeWithFailures:
    def test_observed_run_identical_and_gauges_conserved(self, default_accel):
        requests = PoissonArrivals(300, MIX, seed=5).generate(400.0)
        sim = ClusterSimulator(
            default_accel, 3, scheduler="model-affinity",
            batching=fixed_size(4), reprogram_latency_ms=5.0,
            failures=FailurePlan(mtbf_ms=120.0, mttr_ms=25.0, seed=9))
        bare = sim.run(requests)
        tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=20.0)
        observed = sim.run(requests, observer=compose(tracer, sampler),
                           profiler=KernelProfiler())
        assert observed.records == bare.records
        assert observed.queue_samples == bare.queue_samples
        assert observed.availability == bare.availability
        reg = sampler.registry
        # Displaced work re-enters through requeue events, so
        # the drained run's level gauges return exactly to zero.
        assert reg.counters["failures"].value > 0
        assert reg.counters["requeues"].value > 0
        for name, gauge in reg.gauges.items():
            if name != "down":
                assert gauge.value == 0.0, f"{name} not conserved"
        assert reg.counters["arrivals"].value == len(requests)
        # Failed dispatches requeue and retry, so every request
        # eventually completes exactly once.
        assert reg.counters["completions"].value == len(bare.records)


class TestGenerateWithFailures:
    def test_observed_run_identical_and_trace_spans_close(self, default_accel):
        arrivals = PoissonArrivals(25, MIX, seed=6).generate(400.0)
        requests = attach_generation_lengths(
            arrivals, LengthSampler("uniform", 8, 16),
            LengthSampler("fixed", 12), seed=3,
            max_total=default_accel.synth.max_seq_len)
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=3, scheduler="least-loaded",
            failures=FailurePlan(mtbf_ms=150.0, mttr_ms=30.0, seed=11))
        bare = sim.run(requests)
        tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=20.0)
        observed = sim.run(requests, observer=compose(tracer, sampler))
        assert observed.records == bare.records
        assert observed.queue_samples == bare.queue_samples
        # finish() ran (engines flush observers when the queue drains):
        # every opened span is closed, so the recorder holds no state.
        assert not tracer._open_seqs and not tracer._open_batches
        assert sampler.registry.counters["steps"].value > 0
        assert sampler.registry.histograms["step_ms"].count > 0


def _toy_eval(point, settings):
    return {"y": float(point["a"] * point["b"]), "z": float(point["a"])}


class TestDseProfileIntegration:
    OBJS = (Objective("y", "min"), Objective("z", "max"))

    def _space(self):
        return SearchSpace((Axis("a", (1, 2, 3)), Axis("b", (1, 2))))

    def test_profiled_sweep_scores_identically(self):
        bare = explore(self._space(), _toy_eval, objectives=self.OBJS)
        prof = explore(self._space(), _toy_eval, objectives=self.OBJS,
                       profile=True)
        assert ([r.objectives for r in bare.results]
                == [r.objectives for r in prof.results])
        assert bare.profile is None
        assert prof.profile is not None
        assert len(prof.profile.points) == 6
        assert prof.profile.cache_misses == 0  # no cache configured
        assert "MainProcess" in prof.profile.workers()

    def test_warm_cache_profile_shows_all_hits(self, tmp_path):
        cache = EvalCache(tmp_path / "cache")
        explore(self._space(), _toy_eval, objectives=self.OBJS, cache=cache)
        warm = explore(self._space(), _toy_eval, objectives=self.OBJS,
                       cache=cache, profile=True)
        assert warm.profile.cache_hits == 6
        assert warm.profile.cache_misses == 0
        assert warm.profile.points == []  # nothing evaluated fresh

    def test_as_dict_includes_profile_only_when_enabled(self):
        bare = explore(self._space(), _toy_eval, objectives=self.OBJS)
        prof = explore(self._space(), _toy_eval, objectives=self.OBJS,
                       profile=True)
        assert "profile" not in bare.as_dict()
        assert prof.as_dict()["profile"]["evaluations"] == 6
