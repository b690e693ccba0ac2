"""Metrics: instruments, registry export, and grid-sampling discipline."""

import json
import math

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry, MetricsSampler


class TestInstruments:
    def test_counter_accumulates_and_rejects_decrease(self):
        c = Counter("n")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_set_and_add(self):
        g = Gauge("depth")
        g.set(4.0)
        g.add(-1.5)
        assert g.value == 2.5

    def test_histogram_summary(self):
        h = Histogram("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4 and s["mean"] == 2.5 and s["max"] == 4.0

    def test_histogram_empty_percentile_raises(self):
        h = Histogram("lat")
        with pytest.raises(ValueError, match="no samples"):
            h.percentile(99)
        with pytest.raises(ValueError, match="no samples"):
            h.mean()

    def test_histogram_empty_summary_is_nan_not_crash(self):
        s = Histogram("lat").summary()
        assert s["count"] == 0
        assert all(math.isnan(s[k]) for k in ("mean", "p50", "p95",
                                              "p99", "max"))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_cross_kind_name_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_sample_snapshots_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(3)
        reg.gauge("d").set(2.0)
        reg.histogram("h").observe(1.0)  # histograms never join the series
        row = reg.sample(10.0)
        assert row == {"t_ms": 10.0, "n": 3.0, "d": 2.0}
        assert reg.series == [row]

    def test_csv_union_of_columns_blank_for_unsampled(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.sample(0.0)
        reg.gauge("late").set(7.0)  # appears only from the second row on
        reg.sample(1.0)
        lines = reg.to_csv().splitlines()
        assert lines[0] == "t_ms,a,late"
        assert lines[1].endswith(",")  # 'late' blank in the first row
        assert lines[2] == "1.0,1.0,7.0"

    def test_dump_csv_vs_json_by_suffix(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.sample(0.0)
        csv_path, json_path = tmp_path / "m.csv", tmp_path / "m.json"
        reg.dump(csv_path)
        reg.dump(json_path, run_config={"seed": 1})
        assert csv_path.read_text().startswith("t_ms,")
        loaded = json.loads(json_path.read_text())
        assert loaded["run_config"] == {"seed": 1}
        assert set(loaded) == {"run_config", "counters", "gauges",
                               "histograms", "series"}


class TestSampler:
    @pytest.mark.parametrize("grid_ms", [math.nan, math.inf])
    def test_non_finite_grid_rejected(self, grid_ms):
        """A NaN grid was accepted and sampled off-grid series."""
        with pytest.raises(ValueError, match="grid_ms"):
            MetricsSampler(grid_ms=grid_ms)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError, match="grid_ms"):
            MetricsSampler(grid_ms=0.0)
        with pytest.raises(ValueError, match="grid_ms"):
            MetricsSampler(grid_ms=-5.0)

    def test_grid_rows_precede_the_event_at_the_tick(self):
        s = MetricsSampler(grid_ms=10.0)
        s(("arrive", 0.0, 0, "m", 0))   # tick at 0 sampled *before* this
        s(("arrive", 25.0, 1, "m", 0))  # ticks at 10 and 20 flushed first
        rows = s.registry.series
        assert [r["t_ms"] for r in rows] == [0.0, 10.0, 20.0]
        assert rows[0]["arrivals"] == 0.0  # world as of t=0, pre-event
        assert rows[1]["arrivals"] == 1.0

    def test_grid_coarser_than_horizon_still_exports_final_sample(self):
        s = MetricsSampler(grid_ms=10_000.0)
        s(("arrive", 1.0, 0, "m", 0))
        s(("arrive", 2.0, 1, "m", 0))
        s.finish(3.0)
        rows = s.registry.series
        # One tick at t=0 plus the end-state flush; interior is empty.
        assert [r["t_ms"] for r in rows] == [0.0, 3.0]
        assert rows[-1]["arrivals"] == 2.0

    def test_finish_is_idempotent(self):
        s = MetricsSampler(grid_ms=5.0)
        s(("arrive", 1.0, 0, "m", 0))
        s.finish(2.0)
        n = len(s.registry.series)
        s.finish(50.0)
        assert len(s.registry.series) == n

    def test_serve_lifecycle_conserves_gauges(self):
        s = MetricsSampler(grid_ms=100.0)
        s(("arrive", 0.0, 0, "m", 1))
        s(("arrive", 0.5, 1, "m", 1))
        s(("dispatch", 1.0, 1, "m", 2, 0.0))
        s(("free", 4.0, 1))
        s.finish(5.0)
        reg = s.registry
        assert reg.counters["arrivals"].value == 2
        assert reg.counters["dispatches"].value == 1
        assert reg.counters["completions"].value == 2  # batch of 2
        assert reg.gauges["queued"].value == 0.0
        assert reg.gauges["in_flight"].value == 0.0
        assert reg.gauges["queued_i1"].value == 0.0

    def test_generate_lifecycle_tokens_and_steps(self):
        s = MetricsSampler(grid_ms=100.0)
        s(("arrive", 0.0, 0, "m", 0))
        s(("admit", 1.0, 0, 0, 16, 8))
        s(("step", 2.0, 0, "m", 1, 2, 0.75))
        s(("finish", 9.0, 0, 0))
        reg = s.registry
        assert reg.counters["steps"].value == 1
        assert reg.counters["tokens"].value == 3  # admitted + decoding
        assert reg.histograms["step_ms"].samples == [0.75]
        assert reg.gauges["in_flight"].value == 0.0

    def test_failure_folds_levels_and_requeue_restores(self):
        s = MetricsSampler(grid_ms=100.0)
        s(("arrive", 0.0, 0, "m", 0))
        s(("arrive", 0.1, 1, "m", 0))
        s(("dispatch", 1.0, 0, "m", 1, 0.0))
        s(("fail", 2.0, 0))           # 1 in flight + 1 queued, both folded
        reg = s.registry
        assert reg.gauges["down"].value == 1.0
        assert reg.gauges["in_flight"].value == 0.0
        assert reg.gauges["queued"].value == 0.0
        s(("requeue", 2.0, 0, -1))    # parked: nothing capable is up
        s(("requeue", 2.0, 1, -1))
        assert reg.gauges["parked"].value == 2.0
        s(("recover", 8.0, 0))
        assert reg.gauges["down"].value == 0.0
        assert reg.gauges["parked"].value == 0.0  # engine re-routes all
        s(("requeue", 8.0, 0, 0))
        s(("requeue", 8.0, 1, 0))
        assert reg.gauges["queued"].value == 2.0
        assert reg.counters["requeues"].value == 4
