"""Tests for run-to-run regression detection (repro.obs.diff)."""

import json
import math

import pytest

from repro.obs import DiffReport, diff_runs, render_diff
from repro.obs.diff import DiffEntry, classify, flatten, load_run


class TestClassify:
    @pytest.mark.parametrize("key,expected", [
        ("latency_ms.p99", "min"),
        ("watch.violations", "min"),
        ("watch.alert_minutes", "min"),
        ("watch.budget_burn", "min"),
        ("throughput_rps", "max"),
        ("slo_attainment", "max"),
        ("availability", "max"),
        ("horizon_ms.seed", None),       # neither family
        ("latency_speedup", None),       # both families -> unclassified
    ])
    def test_direction(self, key, expected):
        assert classify(key) == expected


class TestFlatten:
    def test_nested_dotted_keys(self):
        doc = {"a": {"b": 1, "c": [2.5, {"d": 3}]},
               "skip_str": "x", "skip_bool": True, "skip_null": None,
               "skip_inf": float("inf")}
        assert flatten(doc) == {"a.b": 1.0, "a.c.0": 2.5, "a.c.1.d": 3.0}

    def test_empty(self):
        assert flatten({}) == {}


class TestDiffRuns:
    def test_identical_runs_report_nothing(self):
        doc = {"latency_ms": {"p50": 3.0, "p99": 9.0},
               "throughput_rps": 120.0}
        report = diff_runs(doc, json.loads(json.dumps(doc)))
        assert report.ok
        assert report.compared == 3
        assert not (report.regressions or report.improvements
                    or report.changed)

    def test_float_noise_within_band_ignored(self):
        a = {"latency_ms": {"p99": 10.0}}
        b = {"latency_ms": {"p99": 10.0 + 1e-12}}
        assert diff_runs(a, b).ok

    def test_regression_and_improvement_directions(self):
        a = {"latency_ms": {"p99": 10.0}, "throughput_rps": 100.0}
        b = {"latency_ms": {"p99": 20.0}, "throughput_rps": 50.0}
        report = diff_runs(a, b)
        assert not report.ok
        assert {e.key for e in report.regressions} == {
            "latency_ms.p99", "throughput_rps"}
        swapped = diff_runs(b, a)
        assert swapped.ok
        assert {e.key for e in swapped.improvements} == {
            "latency_ms.p99", "throughput_rps"}

    def test_unclassified_moves_are_changed_not_regressions(self):
        report = diff_runs({"seed": 1.0}, {"seed": 2.0})
        assert report.ok
        assert [e.key for e in report.changed] == ["seed"]
        assert report.changed[0].kind == "changed"

    def test_regressions_sorted_by_severity(self):
        a = {"p99_ms": 10.0, "wait_ms": 10.0}
        b = {"p99_ms": 12.0, "wait_ms": 40.0}
        report = diff_runs(a, b)
        assert [e.key for e in report.regressions] == ["wait_ms", "p99_ms"]
        assert report.regressions[0].rel == pytest.approx(3.0)

    def test_only_in_one_run_surfaces(self):
        report = diff_runs({"x": 1.0, "shared": 2.0}, {"y": 1.0,
                                                       "shared": 2.0})
        assert report.only_a == ["x"]
        assert report.only_b == ["y"]
        assert report.compared == 1

    def test_zero_baseline_has_no_rel(self):
        report = diff_runs({"violations": 0.0}, {"violations": 5.0})
        entry = report.regressions[0]
        assert entry.rel is None
        assert entry.as_dict()["rel"] is None

    def test_negative_tolerances_rejected(self):
        with pytest.raises(ValueError, match="tolerances"):
            diff_runs({}, {}, rtol=-0.1)

    @pytest.mark.parametrize("tol", [{"rtol": math.nan}, {"atol": math.nan},
                                     {"rtol": math.inf}, {"atol": math.inf}])
    def test_nan_tolerances_rejected(self, tol):
        """A NaN or infinite band used to pass the ``< 0`` check and
        flag nothing."""
        with pytest.raises(ValueError, match="tolerances"):
            diff_runs({}, {}, **tol)

    def test_as_dict_round_trips_through_json(self):
        report = diff_runs({"p99_ms": 1.0}, {"p99_ms": 2.0})
        doc = json.loads(json.dumps(report.as_dict()))
        assert doc["ok"] is False
        assert doc["regressions"][0]["key"] == "p99_ms"


class TestLoadRun:
    def test_reads_json_object(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"latency_ms": 4.0}')
        assert load_run(path) == {"latency_ms": 4.0}

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            load_run(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_run(tmp_path / "nope.json")


class TestRenderDiff:
    def test_ok_verdict(self):
        text = render_diff(diff_runs({"p99_ms": 1.0}, {"p99_ms": 1.0}))
        assert "OK: no significant regressions" in text

    def test_regression_table_and_names(self):
        report = diff_runs({"p99_ms": 10.0, "extra": 1.0},
                           {"p99_ms": 20.0})
        text = render_diff(report, name_a="base.json", name_b="new.json")
        assert "1 significant regression(s)" in text
        assert "Regressions" in text
        assert "base.json" in text and "new.json" in text
        assert "only in base.json: extra" in text

    def test_empty_report_renders(self):
        text = render_diff(DiffReport(rtol=0.05, atol=1e-9, compared=0))
        assert "compared 0 metric(s)" in text

    def test_changed_section_rendered(self):
        report = diff_runs({"seed": 1.0}, {"seed": 2.0})
        assert "Changed (no known direction)" in render_diff(report)


class TestDiffEntry:
    def test_as_dict(self):
        e = DiffEntry("k", 1.0, 2.0, 1.0, 1.0, "min", "regression")
        assert e.as_dict() == {"key": "k", "a": 1.0, "b": 2.0,
                               "delta": 1.0, "rel": 1.0,
                               "direction": "min", "kind": "regression"}
