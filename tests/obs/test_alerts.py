"""Tests for alert rules and the streaming SLO watchdog."""

import math

import pytest

from repro.obs import (
    Alert,
    AnomalyDetector,
    BurnRateRule,
    ThresholdRule,
    TraceRecorder,
    Watchdog,
    compose,
)
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    summarize,
    summarize_generation,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from repro.sim import FailurePlan

from .._events import run_events

MIX = ModelMix({"model2-lhc-trigger": 2.0, "model1-peng-isqed21": 1.0})


class TestAlert:
    def test_duration_and_dict(self):
        a = Alert("burn_rate", 10.0, 35.0, peak=4.2)
        assert a.duration_ms == 25.0
        d = a.as_dict()
        assert d["rule"] == "burn_rate"
        assert d["duration_ms"] == 25.0
        assert d["open_at_end"] is False


class TestThresholdRule:
    def test_opens_and_closes(self):
        rule = ThresholdRule("queue", threshold=5.0)
        rule.observe(0.0, 3.0)
        assert not rule.firing
        rule.observe(1.0, 8.0)
        assert rule.firing
        rule.observe(2.0, 9.0)  # peak updates while open
        rule.observe(3.0, 2.0)
        assert not rule.firing
        assert rule.alerts == [Alert("queue", 1.0, 3.0, 9.0)]
        assert rule.total_alert_ms() == 2.0
        assert rule.summary() == {"alerts": 1, "alert_ms": 2.0}

    def test_opens_on_the_first_sample_above(self):
        """No sustain clock: one sample over the threshold opens the
        alert at its own timestamp."""
        rule = ThresholdRule("util", threshold=0.9)
        rule.observe(5.0, 0.95)
        assert rule.firing
        rule.observe(6.0, 0.1)
        assert rule.alerts == [Alert("util", 5.0, 6.0, 0.95)]

    def test_threshold_itself_does_not_fire(self):
        rule = ThresholdRule("util", threshold=0.9)
        rule.observe(0.0, 0.9)
        assert not rule.firing
        rule.observe(1.0, 1.0)
        rule.observe(2.0, 0.9)  # back at the threshold closes it
        assert not rule.firing
        assert rule.alerts == [Alert("util", 1.0, 2.0, 1.0)]

    def test_finalize_marks_open_at_end(self):
        rule = ThresholdRule("down", threshold=0.0)
        rule.observe(7.0, 1.0)
        rule.finalize(50.0)
        assert rule.alerts == [Alert("down", 7.0, 50.0, 1.0,
                                     open_at_end=True)]
        assert not rule.firing


class TestBurnRateRule:
    @pytest.mark.parametrize("kwargs,match", [
        ({"target": 0.0}, "target"),
        ({"target": 1.0}, "target"),
        ({"fast_ms": 0.0}, "windows"),
        ({"slow_ms": -1.0}, "windows"),
        ({"fast_ms": 200.0, "slow_ms": 100.0}, "slow window"),
        ({"threshold": 0.0}, "threshold"),
        ({"threshold": math.nan}, "threshold"),
        ({"threshold": math.inf}, "threshold"),
        ({"fast_ms": math.inf}, "windows"),
        ({"slow_ms": math.inf}, "windows"),
    ])
    def test_bad_params_rejected(self, kwargs, match):
        params = {"target": 0.99, "fast_ms": 100.0, "slow_ms": 500.0,
                  "threshold": 2.0}
        params.update(kwargs)
        with pytest.raises(ValueError, match=match):
            BurnRateRule(**params)

    def test_healthy_stream_never_fires(self):
        rule = BurnRateRule(0.99, 100.0, 500.0, threshold=2.0)
        for t in range(200):
            rule.observe(float(t), ok=True)
        assert not rule.firing
        assert rule.alerts == []
        assert rule.max_burn == 0.0

    def test_outage_fires_after_slow_window_confirms(self):
        rule = BurnRateRule(0.9, 50.0, 200.0, threshold=2.0)
        for t in range(100):
            rule.observe(float(t * 2), ok=True)
        assert not rule.firing
        # Total outage: every completion violates from t=200 on.  The
        # fast window saturates quickly; the slow window (still mostly
        # healthy history) gates the alert until enough evidence drains
        # in, then both burn at >= threshold.
        t = 200.0
        while not rule.firing and t < 500.0:
            rule.observe(t, ok=False)
            t += 2.0
        assert rule.firing
        fast, slow = rule.burn_rates()
        assert min(fast, slow) >= 2.0
        assert rule.max_burn >= 2.0

    def test_burn_rates_empty_windows_are_zero(self):
        rule = BurnRateRule(0.99, 10.0, 20.0, threshold=1.0)
        assert rule.burn_rates() == (0.0, 0.0)

    def test_windows_are_half_open(self):
        """Each window covers (t - width, t]: a sample exactly one
        width old is evicted, one just inside is kept."""
        rule = BurnRateRule(0.5, 10.0, 20.0, threshold=100.0)
        rule.observe(0.0, ok=False)
        rule.observe(0.5, ok=False)
        rule.observe(10.0, ok=True)
        # fast (0, 10]: {0.5 bad, 10 ok}; slow (-10, 10]: all three.
        assert rule.burn_rates() == (0.5 / 0.5, (2 / 3) / 0.5)
        rule.observe(20.0, ok=True)
        # fast (10, 20]: {20 ok}; slow (0, 20]: {0.5 bad, 10, 20 ok}.
        assert rule.burn_rates() == (0.0, (1 / 3) / 0.5)

    def test_burn_is_violation_fraction_over_budget(self):
        rule = BurnRateRule(0.9, 100.0, 100.0, threshold=100.0)
        outcomes = [False, True, True, False]  # 50% violations
        for i, ok in enumerate(outcomes):
            rule.observe(float(i), ok)
        fast, slow = rule.burn_rates()
        assert fast == pytest.approx(0.5 / 0.1)
        assert slow == pytest.approx(fast)


class TestWatchdogConstruction:
    def test_slo_must_be_positive(self):
        with pytest.raises(ValueError, match="slo_ms"):
            Watchdog(slo_ms=0.0)

    def test_default_rules(self):
        assert [r.name for r in Watchdog(slo_ms=5.0).rules()] == [
            "burn_rate", "fleet_down"]

    def test_extra_rules_fed_outcomes(self):
        extra = ThresholdRule("slow_request", threshold=100.0)
        wd = Watchdog(slo_ms=5.0, rules=(extra,))
        wd._outcome(1.0, 500.0)
        assert extra.firing
        assert "slow_request" in wd.summary()["rules"]

    def test_empty_run_summary(self):
        wd = Watchdog(slo_ms=5.0)
        wd.finish(0.0)
        s = wd.summary()
        assert s["completions"] == 0
        assert s["attainment"] is None
        assert s["budget_burn"] == 0.0
        assert s["time_to_first_alert_ms"] is None


@pytest.fixture(scope="module")
def serve_outage(default_accel):
    """Golden serve MTBF/MTTR scenario: a watched run, its bare twin,
    and the watched run's event stream."""
    requests = PoissonArrivals(200, MIX, seed=0).generate(800.0)
    sim = ClusterSimulator(
        default_accel, 3, scheduler="model-affinity",
        batching=fixed_size(4), reprogram_latency_ms=5.0,
        failures=FailurePlan(mtbf_ms=300.0, mttr_ms=25.0, seed=7))
    bare = sim.run(requests)
    watchdog = Watchdog(slo_ms=20.0, target=0.99, fast_window_ms=100.0,
                        slow_window_ms=400.0, burn_threshold=2.0,
                        detector=AnomalyDetector(min_samples=16, debounce=3))
    watched, events = run_events(sim.run, requests, observer=watchdog)
    return sim, requests, bare, watched, watchdog, events


class TestWatchdogServe:
    def test_watched_run_byte_identical(self, serve_outage):
        _, _, bare, watched, _, _ = serve_outage
        assert watched.records == bare.records
        assert watched.queue_samples == bare.queue_samples
        assert watched.instances == bare.instances

    def test_attainment_matches_report(self, serve_outage):
        _, _, _, watched, watchdog, _ = serve_outage
        report = summarize(watched, slo_ms=20.0,
                           watch=watchdog.summary())
        s = watchdog.summary()
        assert s["completions"] == len(watched.records)
        assert s["attainment"] == pytest.approx(report.slo_attainment)
        assert report.watch == s
        assert report.as_dict()["watch"] == s

    def test_fleet_down_alert_tracks_outages(self, serve_outage):
        _, _, _, _, watchdog, events = serve_outage
        fails = [e[1] for e in events if e[0] == "fail"]
        assert fails, "scenario must inject at least one failure"
        down = watchdog.down_rule.alerts
        assert down
        # The first down alert opens exactly at the first fail event.
        assert down[0].t_open_ms == fails[0]

    def test_burn_rate_alert_opens_within_outage_window(self, serve_outage):
        _, _, bare, _, watchdog, events = serve_outage
        fails = [e[1] for e in events if e[0] == "fail"]
        recovers = [e[1] for e in events if e[0] == "recover"]
        burn = watchdog.burn_rule.alerts
        assert burn, "outage must blow the error budget"
        first = min(a.t_open_ms for a in burn)
        # Opens after degradation starts, within the faulted span of
        # the run (first failure .. last recovery + drain of the
        # displaced backlog, bounded by the run horizon).
        horizon = max(r.t_complete_ms for r in bare.records)
        assert fails[0] <= first <= max(max(recovers), horizon)
        assert watchdog.burn_rule.max_burn >= 2.0

    def test_anomaly_onset_is_deterministic(self, serve_outage):
        sim, requests, _, _, watchdog, events = serve_outage
        assert watchdog.detector.onset_times, (
            "outage latencies must trip the changepoint detector")
        fails = [e[1] for e in events if e[0] == "fail"]
        assert watchdog.detector.onset_times[0] >= fails[0]
        # Re-run: byte-identical input -> byte-identical onsets.
        twin = Watchdog(slo_ms=20.0, target=0.99, fast_window_ms=100.0,
                        slow_window_ms=400.0, burn_threshold=2.0,
                        detector=AnomalyDetector(min_samples=16, debounce=3))
        sim.run(requests, observer=twin)
        assert twin.detector.onset_times == watchdog.detector.onset_times
        assert twin.summary() == watchdog.summary()

    def test_summary_shape(self, serve_outage):
        _, _, _, _, watchdog, _ = serve_outage
        s = watchdog.summary()
        assert s["slo_ms"] == 20.0 and s["target"] == 0.99
        assert 0.0 < s["attainment"] < 1.0
        assert s["budget_burn"] > 0.0
        assert s["alerts"] == len(watchdog.alerts())
        assert s["alert_minutes"] > 0.0
        assert s["time_to_first_alert_ms"] == min(
            a.t_open_ms for a in watchdog.alerts())
        assert set(s["rules"]) == {"burn_rate", "fleet_down"}

    def test_alerts_sorted_by_open_time(self, serve_outage):
        _, _, _, _, watchdog, _ = serve_outage
        opens = [a.t_open_ms for a in watchdog.alerts()]
        assert opens == sorted(opens)

    def test_annotate_emits_alert_row(self, serve_outage):
        sim, requests, _, _, watchdog, _ = serve_outage
        tracer = TraceRecorder()
        wd = Watchdog(slo_ms=20.0, target=0.99)
        sim.run(requests, observer=compose(tracer, wd))
        wd.annotate(tracer)
        doc = tracer.to_chrome()
        alert_tids = {e["tid"] for e in doc["traceEvents"]
                      if str(e.get("name", "")).startswith("alert:")}
        assert alert_tids == {10_000}
        onsets = [e for e in doc["traceEvents"]
                  if e.get("name") == "anomaly_onset"]
        assert len(onsets) == len(wd.detector.onsets)


@pytest.fixture(scope="module")
def generate_outage(default_accel):
    """Golden generate MTBF/MTTR scenario with preemption pressure."""
    arrivals = PoissonArrivals(200, MIX, seed=3).generate(400.0)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, mean_extra=12.0), seed=5,
        max_total=default_accel.synth.max_seq_len)
    sim = GenerationClusterSimulator(
        default_accel, 2, slots=4, scheduler="least-loaded",
        failures=FailurePlan(mtbf_ms=250.0, mttr_ms=30.0, seed=11))
    bare = sim.run(requests)
    watchdog = Watchdog(slo_ms=30.0, target=0.9, fast_window_ms=50.0,
                        slow_window_ms=200.0, burn_threshold=1.5,
                        detector=AnomalyDetector(min_samples=16, debounce=2))
    watched, events = run_events(sim.run, requests, observer=watchdog)
    return sim, requests, bare, watched, watchdog, events


class TestWatchdogGenerate:
    def test_watched_run_byte_identical(self, generate_outage):
        _, _, bare, watched, _, _ = generate_outage
        assert watched.records == bare.records
        assert watched.queue_samples == bare.queue_samples
        assert watched.instances == bare.instances

    def test_ttft_attainment_tracks_report(self, generate_outage):
        _, _, _, watched, watchdog, _ = generate_outage
        report = summarize_generation(watched, ttft_slo_ms=30.0,
                                      watch=watchdog.summary())
        s = watchdog.summary()
        assert s["completions"] == len(watched.records)
        # The online TTFT bound is step-granular, so the watchdog's
        # attainment is a close, never-optimistic view of the report's.
        assert s["attainment"] <= report.slo_attainment + 1e-12
        assert s["attainment"] == pytest.approx(report.slo_attainment,
                                                abs=0.05)
        assert report.watch == s

    def test_ttft_bound_is_conservative(self, generate_outage):
        _, _, _, watched, watchdog, _ = generate_outage
        violations = sum(
            1 for r in watched.records
            if r.t_first_token_ms - r.t_arrival_ms > 30.0)
        # First tokens land within the admitting step; the watchdog
        # pends them at step end, so it can only over-count violations.
        assert watchdog.violations >= violations
        assert watchdog.violations <= len(watched.records)

    def test_down_alert_and_deterministic_onsets(self, generate_outage):
        sim, requests, _, _, watchdog, events = generate_outage
        fails = [e[1] for e in events if e[0] == "fail"]
        assert fails
        assert watchdog.down_rule.alerts
        assert watchdog.down_rule.alerts[0].t_open_ms == fails[0]
        twin = Watchdog(slo_ms=30.0, target=0.9, fast_window_ms=50.0,
                        slow_window_ms=200.0, burn_threshold=1.5,
                        detector=AnomalyDetector(min_samples=16, debounce=2))
        sim.run(requests, observer=twin)
        assert twin.summary() == watchdog.summary()
