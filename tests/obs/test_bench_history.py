"""Tests for benchmark trend analytics (repro.obs.bench_history)."""

import json
from pathlib import Path

import pytest

from repro.obs import (
    bench_trend,
    check_gates,
    parse_gate,
    render_bench_trend,
)
from repro.obs.bench_history import _direction, load_history


def record(suite, metric, value, units="ms"):
    return {"suite": suite, "metric": metric, "value": value,
            "units": units}


class TestDirection:
    def test_name_beats_units(self):
        # "speedup" is higher-is-better by name even with a cost unit.
        assert _direction("kernel_speedup", "ms") == "max"

    def test_units_fallback(self):
        assert _direction("figure7", "ms") == "min"
        assert _direction("figure7", "inf/s") == "max"
        assert _direction("figure7", "x") is None


class TestBenchTrend:
    def test_single_record_is_new(self):
        rows = bench_trend([record("s", "latency_run", 4.0)])
        assert len(rows) == 1
        assert rows[0].flag == "new"
        assert rows[0].median is None and rows[0].rel_change is None

    def test_steady_metric_not_flagged(self):
        history = [record("s", "latency_run", v) for v in
                   (10.0, 10.2, 9.9, 10.1)]
        (row,) = bench_trend(history, rtol=0.10)
        assert row.flag == ""
        assert row.median == pytest.approx(10.0, rel=0.05)
        assert row.n == 4

    def test_latency_jump_flags_regression(self):
        history = [record("s", "latency_run", v) for v in
                   (10.0, 10.0, 10.0, 15.0)]
        (row,) = bench_trend(history, rtol=0.10)
        assert row.flag == "regression"
        assert row.rel_change == pytest.approx(0.5)

    def test_throughput_jump_flags_improvement(self):
        history = [record("s", "throughput_rps", v, units="req/s")
                   for v in (100.0, 100.0, 150.0)]
        (row,) = bench_trend(history)
        assert row.flag == "improvement"

    def test_unclassifiable_metric_never_flagged(self):
        history = [record("s", "mystery", v, units="x")
                   for v in (1.0, 100.0)]
        (row,) = bench_trend(history)
        assert row.direction is None and row.flag == ""

    def test_rolling_median_bounds_baseline(self):
        # Old slow values age out of a window-2 baseline.
        history = [record("s", "latency_run", v) for v in
                   (100.0, 10.0, 10.0, 10.0)]
        (row,) = bench_trend(history, window=2)
        assert row.median == 10.0
        assert row.flag == ""

    def test_single_fast_run_does_not_poison_baseline(self):
        history = [record("s", "latency_run", v) for v in
                   (10.0, 10.0, 5.0, 10.0)]  # one lucky run
        (row,) = bench_trend(history, rtol=0.10)
        assert row.flag == ""  # median baseline absorbs the outlier

    def test_malformed_records_skipped(self):
        history = [{"weird": 1}, record("s", "latency_run", 3.0),
                   {"suite": "s", "metric": "latency_run",
                    "value": "not-a-number"}]
        rows = bench_trend(history)
        assert len(rows) == 1 and rows[0].n == 1

    def test_groups_by_suite_and_metric(self):
        history = [record("a", "m", 1.0), record("b", "m", 2.0)]
        assert len(bench_trend(history)) == 2

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError, match="window"):
            bench_trend([], window=0)
        with pytest.raises(ValueError, match="rtol"):
            bench_trend([], rtol=-1.0)

    def test_nan_rtol_rejected(self):
        """NaN, and an infinite band that would hide every regression."""
        for rtol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rtol"):
                bench_trend([], rtol=rtol)


class TestLoadHistory:
    def test_reads_array(self, tmp_path):
        path = tmp_path / "BENCH_results.json"
        path.write_text(json.dumps([record("s", "m", 1.0)]))
        assert load_history(path)[0]["metric"] == "m"

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"not": "a list"}')
        with pytest.raises(ValueError, match="JSON array"):
            load_history(path)

    def test_committed_history_parses_and_trends(self):
        path = Path(__file__).parents[2] / "benchmarks" / "output" / \
            "BENCH_results.json"
        rows = bench_trend(load_history(path))
        assert rows, "committed BENCH history must yield trend rows"
        assert any(r.metric == "dse_parallel_speedup_x" for r in rows)


class TestRenderBenchTrend:
    def test_table_and_tail(self):
        history = [record("s", "latency_run", v) for v in
                   (10.0, 10.0, 20.0)]
        text = render_bench_trend(bench_trend(history))
        assert "BENCH trend" in text
        assert "latency_run" in text
        assert "1 metric(s) tracked — 1 regression flag(s)" in text

    def test_no_flags_tail(self):
        text = render_bench_trend(bench_trend([record("s", "m", 1.0)]))
        assert "no regression flags" in text


class TestGates:
    def test_parse_gate(self):
        assert parse_gate("watch_overhead_x<=1.05") == (
            "watch_overhead_x", "<=", 1.05)
        assert parse_gate(" dse_parallel_speedup_x >= 1.0 ") == (
            "dse_parallel_speedup_x", ">=", 1.0)

    @pytest.mark.parametrize("text", ["m<1.0", "m==2", "<=1.0", "m<=",
                                      "m<=one"])
    def test_bad_gates_rejected(self, text):
        with pytest.raises(ValueError, match="invalid gate"):
            parse_gate(text)

    def test_gate_holds(self):
        rows = bench_trend([record("s", "watch_overhead_x", 1.02,
                                   units="x")])
        assert check_gates(rows, [("watch_overhead_x", "<=", 1.05)]) == []

    def test_gate_violation_message(self):
        rows = bench_trend([record("s", "watch_overhead_x", 1.5,
                                   units="x")])
        (msg,) = check_gates(rows, [("watch_overhead_x", "<=", 1.05)])
        assert "watch_overhead_x<=1.05" in msg
        assert "violates the bound" in msg

    def test_missing_metric_is_a_violation(self):
        (msg,) = check_gates([], [("ghost", ">=", 1.0)])
        assert "not found in history" in msg

    def test_ge_gate(self):
        rows = bench_trend([record("s", "speedup_x", 0.8, units="x")])
        assert check_gates(rows, [("speedup_x", ">=", 1.0)])
        rows = bench_trend([record("s", "speedup_x", 1.8, units="x")])
        assert check_gates(rows, [("speedup_x", ">=", 1.0)]) == []
