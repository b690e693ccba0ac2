"""Tests for the event-driven cluster simulator.

Covers the acceptance properties: seed-deterministic event streams, request
conservation, FIFO correctness on one instance, and model-affinity
dispatch beating round-robin under a nonzero reprogramming penalty.
"""

import pytest

from repro.nn import get_model
from repro.serving import (
    ClusterSimulator,
    ModelMix,
    PoissonArrivals,
    TraceReplay,
    fixed_size,
    simulate,
    summarize,
    timeout,
)

from .._events import run_events

MIX1 = ModelMix("model2-lhc-trigger")
MIX2 = ModelMix({"model1-peng-isqed21": 1.0, "model3-efa-trans": 1.0})


def _poisson(qps, mix, seed, duration_ms):
    return PoissonArrivals(qps, mix, seed=seed).generate(duration_ms)


class TestDeterminism:
    def test_identical_trace_and_metrics(self, default_accel):
        """Same seed + scenario → identical event stream and metrics."""
        def run():
            reqs = _poisson(300, MIX2, 11, 1000)
            return run_events(simulate, default_accel, reqs, 3,
                              scheduler="model-affinity",
                              batching=timeout(4, 2.0),
                              reprogram_latency_ms=5.0)
        (a, events_a), (b, events_b) = run(), run()
        assert events_a == events_b
        assert a.records == b.records
        assert a.instances == b.instances
        assert summarize(a) == summarize(b)

    def test_simulator_reuse_replays_identically(self, default_accel):
        """One ClusterSimulator, two run() calls: stateful scheduler
        cursors (round-robin) must reset, so replays are identical."""
        sim = ClusterSimulator(default_accel, 2, scheduler="round-robin")
        reqs = _poisson(200, MIX1, 5, 500)
        (a, events_a), (b, events_b) = (run_events(sim.run, reqs),
                                        run_events(sim.run, reqs))
        assert events_a == events_b
        assert a.records == b.records


class TestConservation:
    @pytest.mark.parametrize("scheduler", ["round-robin", "least-loaded",
                                           "model-affinity"])
    def test_every_request_served_exactly_once(self, default_accel, scheduler):
        reqs = _poisson(400, MIX2, 2, 500)
        res = simulate(default_accel, reqs, 2, scheduler=scheduler,
                       batching=fixed_size(4), reprogram_latency_ms=3.0)
        assert sorted(r.rid for r in res.records) == [r.rid for r in reqs]
        assert sum(i.requests for i in res.instances) == len(reqs)
        assert all(r.t_dispatch_ms >= r.t_arrival_ms for r in res.records)
        assert all(r.t_complete_ms > r.t_dispatch_ms for r in res.records)


class TestSingleInstanceFifo:
    def test_back_to_back_service(self, default_accel):
        """Two simultaneous arrivals: the second waits out the first."""
        cfg = get_model("model2-lhc-trigger")
        svc = default_accel.latency_report(cfg).latency_ms
        reqs = TraceReplay([(0.0, cfg.name), (0.0, cfg.name)]).generate()
        res = simulate(default_accel, reqs, 1)
        first, second = res.records
        assert first.t_complete_ms == pytest.approx(svc)
        assert second.t_dispatch_ms == pytest.approx(svc)
        assert second.latency_ms == pytest.approx(2 * svc)

    def test_busy_time_equals_service_time(self, default_accel):
        reqs = _poisson(200, MIX1, 4, 500)
        res = simulate(default_accel, reqs, 1)
        total_service = sum(r.t_complete_ms - r.t_dispatch_ms
                            for r in res.records)
        assert res.instances[0].busy_ms == pytest.approx(total_service)

    def test_reprogram_penalty_charged_on_switches(self, default_accel):
        trace = [(0.0, "model1-peng-isqed21"), (1.0, "model3-efa-trans"),
                 (2.0, "model1-peng-isqed21")]
        res = simulate(default_accel, TraceReplay(trace).generate(), 1,
                       reprogram_latency_ms=7.0)
        # Three dispatches, each a different model than the resident one.
        assert res.total_switches == 3
        assert res.total_reprogram_time_ms == pytest.approx(21.0)
        res0 = simulate(default_accel, TraceReplay(trace).generate(), 1)
        assert res0.total_reprogram_time_ms == 0.0


class TestBatching:
    def test_fixed_size_batches_same_model_only(self, default_accel):
        # A blocker at t=0 keeps the instance busy while the queue
        # builds; on free, the same-model head run batches together and
        # the other model is cut off into its own batch.
        trace = ([(0.0, "model1-peng-isqed21")]
                 + [(0.5, "model1-peng-isqed21")] * 3
                 + [(0.5, "model3-efa-trans")])
        res = simulate(default_accel, TraceReplay(trace).generate(), 1,
                       batching=fixed_size(8))
        m1_batches = sorted(r.batch_size for r in res.records
                            if r.model == "model1-peng-isqed21")
        assert m1_batches == [1, 3, 3, 3]  # blocker alone, then one batch
        assert all(r.batch_size == 1 for r in res.records
                   if r.model == "model3-efa-trans")

    def test_timeout_batch_waits_for_deadline(self, default_accel):
        """A lone request under timeout batching dispatches at t+timeout."""
        res = simulate(default_accel,
                       TraceReplay([(0.0, "model2-lhc-trigger")]).generate(),
                       1, batching=timeout(8, 3.0))
        (rec,) = res.records
        assert rec.t_dispatch_ms == pytest.approx(3.0)

    def test_full_batch_dispatches_immediately(self, default_accel):
        trace = [(0.0, "model2-lhc-trigger")] * 8
        res = simulate(default_accel, TraceReplay(trace).generate(), 1,
                       batching=timeout(8, 3.0))
        assert all(r.t_dispatch_ms == 0.0 for r in res.records)
        assert all(r.batch_size == 8 for r in res.records)

    def test_batching_raises_throughput_under_overload(self, default_accel):
        """At an offered load one instance cannot sustain unbatched,
        dynamic batching shortens the makespan (higher throughput)."""
        reqs = _poisson(3000, MIX1, 6, 300)
        plain = simulate(default_accel, reqs, 1)
        batched = simulate(default_accel, reqs, 1, batching=fixed_size(6))
        assert batched.makespan_ms < plain.makespan_ms


class TestSchedulers:
    def test_least_loaded_routes_around_a_slow_job(self, default_accel):
        """A ~20 ms job occupies instance 0; round-robin keeps feeding
        it short jobs anyway, least-loaded routes them to the idle
        instance."""
        trace = [(0.0, "model3-efa-trans")] + [
            (float(t), "model2-lhc-trigger") for t in range(1, 11)
        ]
        reqs = TraceReplay(trace).generate()
        rr = summarize(simulate(default_accel, reqs, 2,
                                scheduler="round-robin"))
        ll = summarize(simulate(default_accel, reqs, 2,
                                scheduler="least-loaded"))
        assert ll.mean_latency_ms < rr.mean_latency_ms
        assert ll.mean_wait_ms < rr.mean_wait_ms

    def test_affinity_beats_round_robin_on_two_model_mix(self, default_accel):
        """The acceptance-criteria property: with a nonzero reprogramming
        cost, model-affinity dispatch dominates round-robin on a
        two-model mix — fewer workload switches and lower latency."""
        reqs = _poisson(50, MIX2, 3, 2000)
        rr = summarize(simulate(default_accel, reqs, 2,
                                scheduler="round-robin",
                                reprogram_latency_ms=20.0))
        aff = summarize(simulate(default_accel, reqs, 2,
                                 scheduler="model-affinity",
                                 reprogram_latency_ms=20.0))
        assert aff.total_switches < rr.total_switches / 2
        assert aff.total_reprogram_time_ms < rr.total_reprogram_time_ms
        assert aff.mean_latency_ms < rr.mean_latency_ms
        assert aff.p95_ms < rr.p95_ms

    def test_unknown_scheduler_rejected(self, default_accel):
        with pytest.raises(KeyError, match="unknown scheduler"):
            ClusterSimulator(default_accel, 2, scheduler="fifo?")


class TestValidation:
    def test_instance_count(self, default_accel):
        with pytest.raises(ValueError):
            ClusterSimulator(default_accel, 0)

    def test_negative_penalty(self, default_accel):
        with pytest.raises(ValueError):
            ClusterSimulator(default_accel, 1, reprogram_latency_ms=-1.0)

    def test_empty_workload_is_fine(self, default_accel):
        res = simulate(default_accel, [], 2)
        assert res.records == [] and res.makespan_ms == 0.0


class TestStaleDeadlineChecks:
    """Batching-deadline (`check`) events may fire for an instance that
    already dispatched the batch that armed them.  These tests pin the
    no-op guarantee: a stale or early check never double-charges a
    reprogram and never produces a phantom dispatch."""

    def _bursty(self, seed=7):
        from repro.serving import BurstyArrivals

        return BurstyArrivals(300, MIX2, seed=seed,
                              burst_factor=6.0).generate(1_500)

    def test_trace_identity_with_and_without_deadline_jitter(
            self, default_accel):
        """Checks are pure wakeups: firing them *early* by any jitter
        must replay the identical dispatch trace (the early event finds
        the head under-age and re-arms the true deadline)."""
        reqs = self._bursty()
        base, events = run_events(ClusterSimulator(
            default_accel, 2, batching=timeout(6, 2.0),
            reprogram_latency_ms=3.0).run, reqs)
        dispatches = [e for e in events if e[0] == "dispatch"]
        for jitter in (0.4, 1.1, 50.0):
            jittered, jevents = run_events(ClusterSimulator(
                default_accel, 2, batching=timeout(6, 2.0),
                reprogram_latency_ms=3.0,
                check_jitter_ms=jitter).run, reqs)
            assert jittered.records == base.records, f"jitter={jitter}"
            jdispatches = [e for e in jevents if e[0] == "dispatch"]
            assert jdispatches == dispatches, f"jitter={jitter}"

    def test_stale_check_no_double_reprogram_no_phantom_dispatch(
            self, default_accel):
        """Arm a deadline, fill the batch before it expires (dispatch),
        and let the stale check fire while the instance is busy: the
        run must show exactly one dispatch and one reprogram charge."""
        trace = [(0.0, "model3-efa-trans"), (0.5, "model3-efa-trans")]
        res, events = run_events(simulate, default_accel,
                                 TraceReplay(trace).generate(), 1,
                                 batching=timeout(2, 5.0),
                                 reprogram_latency_ms=10.0)
        dispatches = [e for e in events if e[0] == "dispatch"]
        assert len(dispatches) == 1            # full batch at t=0.5
        assert dispatches[0][4] == 2           # both requests in it
        assert res.instances[0].switch_count == 1
        assert res.total_reprogram_time_ms == pytest.approx(10.0)

    def test_check_rearms_for_younger_head(self, default_accel):
        """After a stale check fires, a younger head still gets served
        exactly at its own deadline — no earlier, no later."""
        svc = default_accel.latency_report(
            get_model("model2-lhc-trigger")).latency_ms
        trace = [(0.0, "model2-lhc-trigger"),
                 (0.2, "model2-lhc-trigger"),   # fills the batch at 0.2
                 (1.0, "model2-lhc-trigger")]   # lone younger head
        res = simulate(default_accel, TraceReplay(trace).generate(), 1,
                       batching=timeout(2, 4.0))
        by_rid = {r.rid: r for r in res.records}
        # The lone request dispatches at its own deadline (1.0 + 4.0)
        # or when the instance frees, whichever is later.
        first_free = 0.2 + 2 * svc
        expected = max(1.0 + 4.0, first_free)
        assert by_rid[2].t_dispatch_ms == pytest.approx(expected)

    def test_negative_jitter_rejected(self, default_accel):
        with pytest.raises(ValueError):
            ClusterSimulator(default_accel, 1, check_jitter_ms=-0.1)
