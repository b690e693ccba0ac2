"""Unit tests for the command-line interface."""

import contextlib
import io
import json
import math

import pytest

from repro.cli import build_parser, main


def _assert_usage_error(capsys, argv, needle):
    """The one way the CLI rejects bad input: exit status 2, nothing on
    stdout, and one ``repro <cmd>: error: ...`` line on stderr (``repro
    obs <sub>: ...`` for the obs family) that contains ``needle``.
    Returns that line."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    prog = " ".join(["repro", *argv[:2 if argv[0] == "obs" else 1]])
    assert lines[0].startswith(f"{prog}: error: ")
    assert needle in lines[0]
    return lines[0]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        for cmd in ("table1", "table2", "table3", "figure7", "scaling",
                    "all", "summary", "power", "latency", "serve"):
            args = build_parser().parse_args([cmd])
            assert args.command == cmd

    def test_partition_defaults(self):
        args = build_parser().parse_args(["partition", "bert-variant"])
        assert args.command == "partition"
        assert args.devices == 2
        assert args.tp == "auto"
        assert args.link == "aurora"
        assert not args.as_json

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.scenario == "poisson"
        assert args.policy == "least-loaded"
        assert args.batch == "none"
        assert not args.as_json

    def test_dse_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.strategy == "grid"
        assert args.jobs == 1
        assert not args.resume and args.cache_dir is None
        assert not args.pareto and not args.as_json


class TestCommands:
    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        out = capsys.readouterr().out
        assert "U55C" in out and "BERT" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "279" in out

    def test_figure7_includes_plot(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "fmax" in out and "#" in out

    def test_latency_named_model(self, capsys):
        assert main(["latency", "model2-lhc-trigger"]) == 0
        assert "ms" in capsys.readouterr().out

    def test_latency_list(self, capsys):
        assert main(["latency", "--list"]) == 0
        out = capsys.readouterr().out
        assert "bert-variant" in out

    def test_latency_unknown_model(self, capsys):
        _assert_usage_error(capsys, ["latency", "not-a-model"],
                            "unknown models ['not-a-model']")

    def test_power(self, capsys):
        assert main(["power"]) == 0
        out = capsys.readouterr().out
        assert "GOPS/W" in out


class TestJsonOutput:
    def test_latency_json(self, capsys):
        assert main(["latency", "model2-lhc-trigger", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["model"] == "model2-lhc-trigger"
        assert blob["latency_ms"] > 0 and blob["gops"] > 0

    def test_latency_list_json(self, capsys):
        assert main(["latency", "--list", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert "bert-variant" in blob
        assert blob["bert-variant"]["d_model"] == 768


class TestServe:
    def test_acceptance_invocation(self, capsys):
        """The ISSUE's canonical command emits throughput, utilization
        and the latency percentiles as JSON."""
        assert main(["serve", "--scenario", "poisson", "--qps", "500",
                     "--instances", "4", "--policy", "least-loaded",
                     "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["throughput_rps"] > 0
        assert 0 < blob["utilization"] < 1
        assert {"p50", "p95", "p99"} <= set(blob["latency_ms"])
        assert blob["instances"] == 4

    def test_serve_is_deterministic(self, capsys):
        argv = ["serve", "--qps", "300", "--instances", "2", "--seed", "7",
                "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_text_report(self, capsys):
        assert main(["serve", "--qps", "200", "--instances", "2",
                     "--duration-ms", "500", "--batch", "timeout",
                     "--batch-size", "4", "--slo-ms", "5"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "p50 / p95 / p99" in out
        assert "SLO attainment" in out

    def test_serve_multi_model_mix(self, capsys):
        assert main(["serve", "--qps", "100", "--instances", "2",
                     "--policy", "model-affinity", "--reprogram-ms", "10",
                     "--model", "model1-peng-isqed21",
                     "--model", "model3-efa-trans:2", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert set(blob["per_model"]) == {"model1-peng-isqed21",
                                          "model3-efa-trans"}

    def test_serve_plan(self, capsys):
        assert main(["serve", "--plan", "--slo-ms", "5", "--qps", "2000",
                     "--duration-ms", "500", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["instances"] >= 1
        assert blob["report"]["latency_ms"]["p99"] <= 5.0

    def test_serve_plan_requires_slo(self, capsys):
        _assert_usage_error(capsys, ["serve", "--plan"],
                            "--plan requires --slo-ms")

    def test_serve_trace_scenario(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(
            [[0.0, "model2-lhc-trigger"], [1.0, "model2-lhc-trigger"]]))
        assert main(["serve", "--scenario", "trace", "--trace-file",
                     str(trace), "--instances", "1", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["total_requests"] == 2

    def test_serve_trace_requires_file(self, capsys):
        _assert_usage_error(capsys, ["serve", "--scenario", "trace"],
                            "requires --trace-file")

    def test_serve_unknown_model(self, capsys):
        _assert_usage_error(capsys, ["serve", "--model", "not-a-model"],
                            "unknown model")

    def test_serve_non_finite_model_weight(self, capsys):
        """A NaN weight used to exit 0 serving only the other model."""
        _assert_usage_error(capsys, ["serve", "--model",
                                     "model2-lhc-trigger:nan", "--model",
                                     "model1-peng-isqed21:1"],
                            "invalid model mix")

    def test_serve_trace_unknown_model(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([[0.0, "not-a-model"]]))
        _assert_usage_error(capsys, ["serve", "--scenario", "trace",
                                     "--trace-file", str(trace)],
                            "unknown models")

    def test_serve_plan_diurnal_succeeds(self, capsys):
        """--plan gates throughput on the realized (not nominal peak)
        rate, so a diurnal plan terminates with a finite fleet."""
        assert main(["serve", "--plan", "--scenario", "diurnal",
                     "--slo-ms", "50", "--qps", "200",
                     "--duration-ms", "500", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert 1 <= blob["instances"] <= 8


class TestServePlanKnobs:
    PLAN = ["serve", "--plan", "--slo-ms", "50", "--qps", "200",
            "--duration-ms", "500"]

    def test_analytic_only_skips_simulation(self, capsys):
        assert main(self.PLAN + ["--analytic-only", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["mode"] == "analytic-only"
        assert blob["probes"] == {}
        assert "report" not in blob
        assert blob["analytic"]["instances"] == blob["instances"]
        assert blob["analytic"]["estimate"]["latency_ms"]["p99"] <= 50.0

    def test_analytic_only_text_render(self, capsys):
        assert main(self.PLAN + ["--analytic-only"]) == 0
        out = capsys.readouterr().out
        assert "[analytic, unconfirmed]" in out

    def test_confirm_probe_matches_default(self, capsys):
        """Both search modes must land on the same confirmed plan."""
        assert main(self.PLAN + ["--json"]) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(self.PLAN + ["--confirm", "probe", "--json"]) == 0
        probe = json.loads(capsys.readouterr().out)
        assert default["mode"] == "analytic"
        assert probe["mode"] == "probe"
        assert probe["instances"] == default["instances"]
        assert (probe["report"]["latency_ms"]["p99"]
                == default["report"]["latency_ms"]["p99"])
        assert "analytic" not in probe
        assert default["analytic"]["instances"] >= 1

    def test_analytic_only_conflicts_with_confirm_probe(self, capsys):
        _assert_usage_error(capsys, self.PLAN + ["--analytic-only",
                                                 "--confirm", "probe"],
                            "drop one of the two")

    def test_knobs_require_plan(self, capsys):
        _assert_usage_error(capsys, ["serve", "--qps", "50",
                                     "--analytic-only"], "add --plan")
        _assert_usage_error(capsys, ["serve", "--qps", "50", "--confirm",
                                     "probe"], "add --plan")


class TestServeSwitchTime:
    def test_json_reports_per_instance_switch_ms(self, capsys):
        """The JSON path must carry the reprogramming *time* per
        instance, not just the switch count."""
        assert main(["serve", "--qps", "100", "--instances", "2",
                     "--policy", "round-robin", "--reprogram-ms", "10",
                     "--model", "model1-peng-isqed21",
                     "--model", "model3-efa-trans:2", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        per_inst = blob["per_instance"]
        assert per_inst, "expected per-instance records"
        assert all("switch_ms" in inst for inst in per_inst)
        # Round-robin over a 2-model mix must actually switch, and the
        # per-instance times must add up to the aggregate.
        assert sum(i["switches"] for i in per_inst) > 0
        assert sum(i["switch_ms"] for i in per_inst) == pytest.approx(
            blob["reprogramming"]["time_ms"])
        assert sum(i["switch_ms"] for i in per_inst) > 0


class TestPartition:
    """Acceptance matrix: >= 2 zoo models x K in {2, 4} through the
    CLI's JSON path, plus text/gantt rendering."""

    @pytest.mark.parametrize("model", ["bert-variant", "model3-efa-trans"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_json_reports_acceptance_fields(self, capsys, model, k):
        assert main(["partition", model, "-k", str(k), "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["model"] == model
        assert blob["devices"] == k
        # Stage assignment covers every layer contiguously.
        stages = blob["stages"]
        assert stages[0]["layers"][0] == 0
        for a, b in zip(stages, stages[1:]):
            assert a["layers"][1] == b["layers"][0]
        assert all(s["cycles"] > 0 for s in stages)
        assert all(s["bubble_cycles"] >= 0 for s in stages)
        # Interconnect, fill, steady state.
        assert blob["interconnect"]["cycles_per_boundary"] >= 0
        assert blob["fill"]["cycles"] > 0 and blob["fill"]["ms"] > 0
        assert blob["steady_state"]["inf_per_s"] > 0
        # Both fit a single device, so the comparison is present and
        # the K-device steady state beats it.
        assert blob["steady_state"]["speedup"] > 1.0
        assert blob["single_device"]["latency_ms"] > 0

    def test_text_report(self, capsys):
        assert main(["partition", "bert-variant", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "4 stage(s)" in out
        assert "fill latency" in out and "steady state" in out
        assert "speedup" in out

    def test_gantt(self, capsys):
        assert main(["partition", "bert-variant", "-k", "2",
                     "--gantt", "4"]) == 0
        out = capsys.readouterr().out
        assert "fpga0" in out and "fpga1" in out and "#" in out

    def test_explicit_tp(self, capsys):
        assert main(["partition", "bert-variant", "-k", "4",
                     "--tp", "4", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["pipeline_stages"] == 1
        assert blob["stages"][0]["tp_ways"] == 4
        assert blob["stages"][0]["tp_comm_cycles_per_layer"] > 0

    def test_link_choice_changes_cost(self, capsys):
        costs = {}
        for link in ("aurora", "eth10g"):
            assert main(["partition", "bert-variant", "-k", "2",
                         "--link", link, "--json"]) == 0
            blob = json.loads(capsys.readouterr().out)
            costs[link] = blob["interconnect"]["cycles_per_boundary"]
        assert costs["eth10g"] > costs["aurora"]

    def test_invalid_tp_value(self, capsys):
        _assert_usage_error(capsys, ["partition", "bert-variant", "--tp",
                                     "many"], "invalid --tp")

    def test_unknown_model(self, capsys):
        _assert_usage_error(capsys, ["partition", "not-a-model"],
                            "unknown models ['not-a-model']")

    def test_too_deep_pipeline_raises(self, capsys):
        _assert_usage_error(capsys, ["partition", "model2-lhc-trigger",
                                     "-k", "8", "--tp", "1"],
                            "cannot pipeline")


class TestDse:
    """Acceptance: `dse --jobs N --json` produces a multi-objective
    Pareto frontier; the cache makes re-runs incremental."""

    ARGS = ["dse", "--model", "model2-lhc-trigger",
            "--tiles-mha", "12,48", "--tiles-ffn", "6",
            "--qps", "100", "--duration-ms", "100"]

    def test_acceptance_invocation(self, capsys):
        assert main(self.ARGS + ["--jobs", "2", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["objectives"]) >= 3
        assert blob["frontier"], "expected a non-empty Pareto frontier"
        point = blob["frontier"][0]
        assert set(o["name"] for o in blob["objectives"]) == set(
            point["objectives"])
        assert all(v is not None and v > 0
                   for v in point["objectives"].values())
        assert blob["evaluated"] == 2

    def test_text_report_marks_frontier(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "frontier (*)" in out
        assert "latency_ms" in out and "power_w" in out

    def test_pareto_json_omits_full_results(self, capsys):
        assert main(self.ARGS + ["--json", "--pareto"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert "results" not in blob and blob["frontier"]

    def test_infeasible_corner_reported_not_fatal(self, capsys):
        assert main(["dse", "--model", "model2-lhc-trigger",
                     "--tiles-mha", "6,12", "--tiles-ffn", "3,6",
                     "--qps", "100", "--duration-ms", "100",
                     "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        errors = [r for r in blob["results"] if r["error"]]
        assert errors and all("does not fit" in r["error"] for r in errors)

    def test_resume_reevaluates_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = self.ARGS + ["--resume", "--json"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert cold["evaluated"] == 2 and warm["evaluated"] == 0
        assert warm["cache"] == {"hits": 2, "misses": 0}
        assert warm["frontier"] == [
            dict(r, cached=True) for r in cold["frontier"]]
        assert (tmp_path / ".dse_cache").is_dir()

    def test_cache_dir_flag_implies_resume(self, tmp_path, capsys):
        argv = self.ARGS + ["--cache-dir", str(tmp_path / "c"), "--json"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["evaluated"] == 0

    def test_random_strategy_seeded(self, capsys):
        argv = ["dse", "--strategy", "random", "--samples", "3",
                "--seed", "5", "--model", "model2-lhc-trigger",
                "--tiles-mha", "12,16,24,48", "--tiles-ffn", "4,6",
                "--qps", "100", "--duration-ms", "100", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert len(first["results"]) == 3
        assert ([r["point"] for r in first["results"]]
                == [r["point"] for r in second["results"]])

    def test_evolutionary_strategy_runs(self, capsys):
        assert main(["dse", "--strategy", "evolutionary",
                     "--population", "3", "--generations", "2",
                     "--model", "model2-lhc-trigger",
                     "--tiles-mha", "12,16,24,48", "--tiles-ffn", "4,6",
                     "--qps", "100", "--duration-ms", "100",
                     "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["strategy"] == "evolutionary"
        assert 3 <= len(blob["results"]) <= 6
        assert blob["frontier"]

    def test_unknown_model_rejected(self, capsys):
        _assert_usage_error(capsys, ["dse", "--model", "not-a-model"],
                            "invalid search space")

    def test_bad_axis_list_rejected(self, capsys):
        _assert_usage_error(capsys, ["dse", "--tiles-mha", "8,many"],
                            "--tiles-mha")

    def test_unknown_objective_rejected(self, capsys):
        _assert_usage_error(capsys, ["dse", "--objectives",
                                     "latency_ms,carbon"],
                            "invalid search space")

    def test_invalid_jobs_rejected_cleanly(self, capsys):
        _assert_usage_error(capsys, ["dse", "--jobs", "0"], "invalid --jobs")


class TestScalingCommand:
    def test_scaling_renders_curve(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "Multi-FPGA scaling" in out
        assert "bert-variant" in out and "model3-efa-trans" in out
        assert "speedup" in out


class TestGenerate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.command == "generate"
        assert args.scenario == "poisson"
        assert args.instances == 2 and args.slots == 8
        assert args.prompt_tokens == "16" and args.output_tokens == "32"
        assert not args.as_json

    def test_acceptance_invocation(self, capsys):
        """The ISSUE's acceptance check: `repro generate --json` reports
        TTFT/TPOT/tokens-per-second end to end through the synthesized-
        accelerator latency model."""
        assert main(["generate", "--qps", "50", "--duration-ms", "500",
                     "--instances", "2", "--slots", "4", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["ttft_ms"]["p99"] > 0
        assert blob["tpot_ms"]["mean"] > 0
        assert blob["tokens_per_s"] > 0
        assert blob["instances"] == 2 and blob["slots"] == 4

    def test_generate_is_deterministic(self, capsys):
        argv = ["generate", "--qps", "40", "--duration-ms", "400",
                "--seed", "3", "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_text_report_with_slos(self, capsys):
        assert main(["generate", "--qps", "30", "--duration-ms", "300",
                     "--prompt-tokens", "4:12",
                     "--output-tokens", "geo:4:8",
                     "--ttft-slo-ms", "50", "--tpot-slo-ms", "5"]) == 0
        out = capsys.readouterr().out
        assert "TTFT" in out and "TPOT" in out
        assert "goodput" in out

    def test_bad_length_spec_rejected(self, capsys):
        _assert_usage_error(capsys, ["generate", "--prompt-tokens", "nope"],
                            "length spec")


class TestScenarioFlags:
    """The kernel scenario layer's CLI surface: --heterogeneous,
    --failures, --priority, and their eager validation."""

    def test_serve_failures_json(self, capsys):
        assert main(["serve", "--qps", "300", "--duration-ms", "300",
                     "--instances", "2", "--failures", "150:20",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "failures" in out
        assert 0 < out["failures"]["availability"] <= 1

    def test_serve_heterogeneous_json(self, capsys):
        assert main(["serve", "--qps", "200", "--duration-ms", "300",
                     "--heterogeneous", "1.0,0.5", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["fleet"] == "1,0.5"
        assert out["instances"] == 2

    def test_generate_priority_and_failures(self, capsys):
        assert main(["generate", "--qps", "40", "--duration-ms", "250",
                     "--instances", "1", "--slots", "2",
                     "--priority", "0.3", "--failures", "200:20",
                     "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["priority_fraction"] == 0.3
        assert "failures" in out

    def test_serve_rejects_bad_fleet_spec(self, capsys):
        _assert_usage_error(capsys, ["serve", "--heterogeneous", "nope"],
                            "invalid fleet entry")

    def test_serve_rejects_slots_spec(self, capsys):
        _assert_usage_error(capsys, ["serve", "--heterogeneous", "1.0/4"],
                            "generate-mode")

    def test_serve_rejects_uncovered_workload(self, capsys):
        """Capability sets that leave the mix unservable exit before
        the simulation starts, not mid-run with a traceback."""
        _assert_usage_error(capsys, ["serve", "--heterogeneous",
                                     "1.0@model1-peng-isqed21"], "unservable")

    def test_serve_rejects_unknown_pinned_model(self, capsys):
        _assert_usage_error(capsys, ["serve", "--heterogeneous",
                                     "1.0@no-such-model"], "unknown models")

    def test_serve_rejects_bad_failure_spec(self, capsys):
        _assert_usage_error(capsys, ["serve", "--failures", "150"],
                            "invalid failure spec")

    @pytest.mark.parametrize("argv, needle", [
        (["serve", "--heterogeneous", "inf"], "speed"),
        (["serve", "--heterogeneous", "1e309x2"], "speed"),
        (["serve", "--heterogeneous", "nan"], "speed"),
        (["generate", "--heterogeneous", "1.0,inf"], "speed"),
        (["serve", "--failures", "nan:10"], "mtbf_ms"),
        (["generate", "--failures", "nan:10"], "mtbf_ms"),
        (["serve", "--failures", "inf:10"], "mtbf_ms"),
        (["serve", "--failures", "100:inf"], "mttr_ms"),
        (["generate", "--failures", "100:nan"], "mttr_ms"),
    ])
    def test_rejects_non_finite_scenario_knobs(self, capsys, argv, needle):
        """Non-finite speeds and fault rates exit with a message (no
        traceback) instead of reporting a run that never injected them
        or dying in the RNG with a ``ZeroDivisionError``."""
        line = _assert_usage_error(capsys, argv + ["--duration-ms", "50"],
                                   needle)
        assert "finite" in line

    def test_generate_rejects_bad_priority(self, capsys):
        _assert_usage_error(capsys, ["generate", "--priority", "2.0",
                                     "--duration-ms", "100"], "high_fraction")

    def test_plan_conflicts_with_heterogeneous(self, capsys):
        _assert_usage_error(capsys, ["serve", "--plan", "--slo-ms", "5",
                                     "--heterogeneous", "1.0x2"], "--plan")


#: Every numeric flag of serve, generate, dse, partition and obs:
#: ``(argv that puts the flag in play, flag, first out-of-range value or
#: None when every finite value is valid, needle naming the knob)``.
#: The obs rows read the real inputs :func:`obs_inputs` writes.
_RUN = ("--duration-ms=50",)
NUMERIC_FLAGS = [
    *((cmd, flag, bad, needle)
      for cmd in (["serve", *_RUN], ["generate", *_RUN])
      for flag, bad, needle in (
          ("--qps", "0", "--qps"),
          ("--instances", "0", "instance"),
          ("--seed", None, "--seed"),
          ("--reprogram-ms", "-1", "reprogram"),
          ("--metrics-grid-ms", "0", "grid_ms"),
          ("--watch-window-ms", "0", "--watch-window-ms"),
          ("--watch-slow-window-ms", "0", "--watch-slow-window-ms"),
          ("--watch-target", "1", "--watch-target"),
          ("--shards", "0", "--shards"))),
    (["serve"], "--duration-ms", "0", "--duration-ms"),
    (["serve", *_RUN, "--batch=fixed"], "--batch-size", "0", "batch"),
    (["serve", *_RUN, "--batch=timeout"], "--batch-timeout-ms", "-1",
     "--batch-timeout-ms"),
    (["serve", *_RUN], "--slo-ms", "0", "--slo-ms"),
    (["serve", *_RUN, "--shards=2"], "--shard-jobs", "0", "shard"),
    (["generate"], "--duration-ms", "0", "--duration-ms"),
    (["generate", *_RUN], "--slots", "0", "slot"),
    (["generate", *_RUN], "--priority", "1.5", "high_fraction"),
    (["generate", *_RUN], "--ttft-slo-ms", "0", "--ttft-slo-ms"),
    (["generate", *_RUN], "--tpot-slo-ms", "0", "--tpot-slo-ms"),
    (["generate", *_RUN, "--shards=2"], "--shard-jobs", "0", "shard"),
    (["dse"], "--qps", "0", "--qps"),
    (["dse"], "--duration-ms", "0", "--duration-ms"),
    (["dse"], "--seed", None, "--seed"),
    (["dse", "--strategy=random"], "--samples", "0", "samples"),
    (["dse", "--strategy=evolutionary"], "--population", "1",
     "population"),
    (["dse", "--strategy=evolutionary"], "--generations", "0",
     "generations"),
    (["dse"], "--jobs", "0", "--jobs"),
    (["dse"], "--batch", "0", "--batch"),
    (["dse", "--prescreen"], "--prescreen-keep", "0", "keep"),
    (["partition", "model2-lhc-trigger"], "--devices", "0", "devices"),
    (["partition", "model2-lhc-trigger"], "--tp", "0", "tp"),
    (["partition", "model2-lhc-trigger"], "--gantt", "-1", "--gantt"),
    (["obs", "diff", "run.json", "run.json"], "--rtol", "-1", "rtol"),
    (["obs", "diff", "run.json", "run.json"], "--atol", "-1", "atol"),
    (["obs", "bench", "--results=hist.json"], "--window", "0", "window"),
    (["obs", "bench", "--results=hist.json"], "--rtol", "-1", "rtol"),
    (["obs", "trace-summary", "run.trace.json"], "--top", "-1", "top"),
]


@pytest.fixture(scope="class")
def obs_inputs(tmp_path_factory):
    """A run export, its trace and a benchmark history, so each obs row
    of :data:`NUMERIC_FLAGS` reaches its flag check, not "cannot read";
    and an arrival trace with a NaN timestamp."""
    root = tmp_path_factory.mktemp("obs_inputs")
    export = io.StringIO()
    with contextlib.redirect_stdout(export):
        assert main(["serve", *_RUN, "--json",
                     f"--trace={root / 'run.trace.json'}"]) == 0
    (root / "run.json").write_text(export.getvalue())
    (root / "hist.json").write_text(json.dumps(
        [{"suite": "s", "metric": "p99_ms", "value": 1.0, "units": "ms"}]))
    (root / "nan_trace.json").write_text(json.dumps(
        [[t, "model2-lhc-trigger"] for t in (math.nan, 1.0, 2.0)]))
    return root


def _numeric_cases():
    """``(argv, needle)`` for NaN, +-inf and the first out-of-range
    value of every flag in :data:`NUMERIC_FLAGS` (``--flag=value``, so
    ``-inf`` reaches the flag instead of reading as an option)."""
    for cmd, flag, bad, needle in NUMERIC_FLAGS:
        for value in ("nan", "inf", "-inf") + ((bad,) if bad else ()):
            yield cmd + [f"{flag}={value}"], needle


class TestBadInputsExitTwo:
    """Out-of-range and non-finite knobs fail like an argparse usage
    error — exit status 2 and one line on stderr — instead of hanging
    (``--qps inf``), exiting 0 with an empty report (``--qps nan``) or
    dumping a traceback (``--instances 0``).  The table ends with every
    numeric flag of :data:`NUMERIC_FLAGS`."""

    SMALL = ["--duration-ms", "50"]

    @pytest.mark.parametrize("argv, needle", [
        (["serve", "--qps", "inf"] + SMALL, "--qps"),
        (["serve", "--qps", "nan"] + SMALL, "--qps"),
        (["serve", "--qps", "0"] + SMALL, "--qps"),
        (["serve", "--qps", "-5"] + SMALL, "--qps"),
        (["serve", "--duration-ms", "inf"], "--duration-ms"),
        (["serve", "--duration-ms", "nan"], "--duration-ms"),
        (["serve", "--duration-ms", "0"], "--duration-ms"),
        (["serve", "--batch", "timeout", "--batch-timeout-ms", "nan"]
         + SMALL, "--batch-timeout-ms"),
        (["serve", "--batch", "timeout", "--batch-timeout-ms", "inf"]
         + SMALL, "--batch-timeout-ms"),
        (["serve", "--batch", "timeout", "--batch-timeout-ms", "-1"]
         + SMALL, "--batch-timeout-ms"),
        (["serve", "--plan", "--slo-ms", "5", "--qps", "inf"] + SMALL,
         "--qps"),
        (["serve", "--instances", "0"] + SMALL, "instance"),
        (["serve", "--reprogram-ms", "-5"] + SMALL, "reprogram"),
        (["serve", "--plan", "--slo-ms", "5", "--reprogram-ms", "-5"]
         + SMALL, "reprogram"),
        (["serve", "--batch", "fixed", "--batch-size", "0"] + SMALL,
         "max_batch"),
        (["generate", "--qps", "inf"] + SMALL, "--qps"),
        (["generate", "--qps", "nan"] + SMALL, "--qps"),
        (["generate", "--duration-ms", "-1"], "--duration-ms"),
        (["generate", "--instances", "0"] + SMALL, "instance"),
        (["generate", "--slots", "0"] + SMALL, "slot"),
        (["generate", "--reprogram-ms", "-5"] + SMALL, "reprogram"),
        (["serve", "--plan", "--slo-ms", "nan"] + SMALL, "--slo-ms"),
        (["serve", "--plan", "--slo-ms", "0"] + SMALL, "--slo-ms"),
        (["serve", "--slo-ms", "inf"] + SMALL, "--slo-ms"),
        (["generate", "--ttft-slo-ms", "nan", "--json"] + SMALL,
         "--ttft-slo-ms"),
        (["generate", "--ttft-slo-ms", "-1"] + SMALL, "--ttft-slo-ms"),
        (["generate", "--tpot-slo-ms", "nan"] + SMALL, "--tpot-slo-ms"),
        (["generate", "--tpot-slo-ms", "0"] + SMALL, "--tpot-slo-ms"),
        (["dse", "--qps", "nan", "--json"], "--qps"),
        (["dse", "--qps", "inf"], "--qps"),
        (["dse", "--qps", "0"], "--qps"),
        (["dse", "--duration-ms", "nan"], "--duration-ms"),
        (["dse", "--duration-ms", "-5"], "--duration-ms"),
        (["serve", "--reprogram-ms", "inf"] + SMALL, "reprogram"),
        (["generate", "--reprogram-ms", "nan"] + SMALL, "reprogram"),
        # Cases that used to crash with a traceback or exit 0.
        (["serve", "--watch", "--slo-ms", "5", "--watch-window-ms", "nan"]
         + SMALL, "--watch-window-ms"),
        (["serve", "--shards", "2", "--shard-jobs", "-1"] + SMALL,
         "shard_jobs"),
        (["serve", "--metrics-grid-ms", "nan", "--metrics", "m.json"]
         + SMALL, "grid_ms"),
        (["generate", "--prompt-tokens", "geo:4:inf"] + SMALL,
         "length spec"),
        (["serve", "--scenario", "trace", "--trace-file", "missing.json"],
         "cannot read --trace-file"),
        *_numeric_cases(),
        # Used to exit 0 reporting the two finite stamps.
        (["serve", "--scenario", "trace", "--trace-file", "nan_trace.json"],
         "trace timestamps must be finite"),
    ])
    def test_rejected_with_exit_two(self, capsys, monkeypatch, obs_inputs,
                                    argv, needle):
        monkeypatch.chdir(obs_inputs)
        _assert_usage_error(capsys, argv, needle)

    def test_edge_values_still_run(self, capsys):
        """A zero batch timeout is a valid (dispatch-at-once) policy."""
        assert main(["serve", "--qps", "100", "--duration-ms", "50",
                     "--batch", "timeout", "--batch-timeout-ms", "0",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total_requests"] > 0


class TestObservabilityFlags:
    """The repro.obs CLI surface: --trace / --metrics / --profile."""

    SERVE = ["serve", "--qps", "300", "--duration-ms", "300",
             "--instances", "2", "--seed", "4"]
    GEN = ["generate", "--qps", "30", "--duration-ms", "250",
           "--instances", "1", "--slots", "3", "--seed", "4"]

    def test_serve_json_carries_run_config(self, capsys):
        assert main(self.SERVE + ["--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        rc = out["run_config"]
        assert rc["command"] == "serve"
        assert rc["seed"] == 4 and rc["qps"] == 300
        assert rc["instances"] == 2 and rc["batch"] == "none"
        from repro import __version__
        assert rc["repro_version"] == __version__

    def test_generate_json_carries_run_config(self, capsys):
        assert main(self.GEN + ["--json"]) == 0
        rc = json.loads(capsys.readouterr().out)["run_config"]
        assert rc["command"] == "generate"
        assert rc["slots"] == 3 and rc["prompt_tokens"] == "16"

    def test_serve_trace_is_chrome_format(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main(self.SERVE + ["--trace", str(trace), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        doc = json.loads(trace.read_text())
        assert set(doc) == {"traceEvents", "displayTimeUnit", "metadata"}
        assert doc["metadata"]["run_config"]["seed"] == 4
        events = doc["traceEvents"]
        assert events, "trace exported no events"
        for event in events:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] == "X":
                assert event["dur"] >= 0
        names = {e["name"] for e in events}
        assert {"arrive", "batch", "thread_name"} <= names
        # One batch span per dispatch; sizes sum to the served requests.
        served = sum(e["args"]["size"] for e in events
                     if e["name"] == "batch")
        assert served == report["total_requests"]

    def test_generate_trace_has_sequence_and_step_spans(self, tmp_path):
        trace = tmp_path / "gen.trace.json"
        assert main(self.GEN + ["--trace", str(trace)]) == 0
        names = {e["name"] for e in
                 json.loads(trace.read_text())["traceEvents"]}
        assert {"arrive", "step", "sequence"} <= names

    def test_trace_does_not_change_results(self, tmp_path, capsys):
        assert main(self.SERVE + ["--json"]) == 0
        bare = capsys.readouterr().out
        assert main(self.SERVE + ["--trace", str(tmp_path / "t.json"),
                                  "--metrics", str(tmp_path / "m.json"),
                                  "--profile", "--json"]) == 0
        observed = json.loads(capsys.readouterr().out)
        profile = observed.pop("profile")
        assert observed == json.loads(bare)
        assert profile["events"] > 0

    def test_metrics_json_and_csv_by_suffix(self, tmp_path):
        mj, mc = tmp_path / "m.json", tmp_path / "m.csv"
        assert main(self.SERVE + ["--metrics", str(mj)]) == 0
        assert main(self.SERVE + ["--metrics", str(mc),
                                  "--metrics-grid-ms", "25"]) == 0
        blob = json.loads(mj.read_text())
        assert blob["run_config"]["command"] == "serve"
        assert blob["counters"]["arrivals"] > 0
        assert blob["counters"]["arrivals"] == blob["counters"]["completions"]
        header = mc.read_text().splitlines()[0].split(",")
        assert header[0] == "t_ms" and "queued" in header

    def test_serve_profile_text_report(self, capsys):
        assert main(self.SERVE + ["--profile"]) == 0
        out = capsys.readouterr().out
        assert "Kernel profile" in out and "us/event" in out

    def test_unwritable_trace_path_exits_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "missing" / "t.json")
        _assert_usage_error(capsys, self.SERVE + ["--trace", missing],
                            "cannot write observability output")

    def test_bad_metrics_grid_rejected(self, capsys):
        _assert_usage_error(capsys, self.SERVE + ["--metrics", "m.json",
                                                  "--metrics-grid-ms", "0"],
                            "grid_ms")

    def test_plan_rejects_observability_flags(self, capsys):
        _assert_usage_error(capsys, ["serve", "--plan", "--slo-ms", "5",
                                     "--profile"], "--plan")

    def test_dse_profile_json(self, capsys):
        assert main(["dse", "--tiles-mha", "8", "--tiles-ffn", "3",
                     "--formats", "fix8", "--model", "bert-variant",
                     "--duration-ms", "120", "--profile", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        profile = out["profile"]
        assert profile["cache"] == {"hits": 0, "misses": 0} \
            or profile["cache"]["misses"] >= 0
        assert profile["evaluations"] == len(out["results"])
        assert profile["workers"], "no per-worker breakdown"

    def test_dse_profile_text_reports_cache_and_workers(
            self, tmp_path, capsys):
        argv = ["dse", "--tiles-mha", "8", "--tiles-ffn", "3",
                "--formats", "fix8", "--model", "bert-variant",
                "--duration-ms", "120", "--cache-dir",
                str(tmp_path / "cache"), "--profile"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "DSE profile" in cold and "miss(es)" in cold
        assert "Per-worker" in cold
        assert main(argv) == 0  # warm resume: everything a cache hit
        warm = capsys.readouterr().out
        assert "1 cache hit(s)" in warm


class TestWatchFlags:
    """serve/generate --watch: the streaming SLO watchdog surface."""

    SERVE = ["serve", "--qps", "200", "--duration-ms", "400",
             "--instances", "2", "--seed", "4", "--slo-ms", "10",
             "--failures", "150:25"]
    GEN = ["generate", "--qps", "30", "--duration-ms", "250",
           "--instances", "1", "--slots", "3", "--seed", "4",
           "--ttft-slo-ms", "25"]

    def test_serve_watch_report_table(self, capsys):
        assert main(self.SERVE + ["--watch"]) == 0
        out = capsys.readouterr().out
        assert "SLO watchdog" in out
        assert "rule burn_rate" in out and "rule fleet_down" in out

    def test_serve_watch_json_block(self, capsys):
        assert main(self.SERVE + ["--watch", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        watch = doc["watch"]
        assert watch["slo_ms"] == 10.0 and watch["target"] == 0.99
        assert watch["completions"] == doc["total_requests"]
        assert set(watch["rules"]) == {"burn_rate", "fleet_down"}
        assert doc["run_config"]["watch"]["target"] == 0.99

    def test_watch_does_not_change_results(self, capsys):
        assert main(self.SERVE + ["--json"]) == 0
        bare = json.loads(capsys.readouterr().out)
        assert main(self.SERVE + ["--watch", "--json"]) == 0
        watched = json.loads(capsys.readouterr().out)
        watched.pop("watch")
        rc = watched["run_config"].pop("watch")
        assert rc["fast_window_ms"] == 100.0
        assert watched == bare

    def test_generate_watch_json_block(self, capsys):
        assert main(self.GEN + ["--watch", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["watch"]["slo_ms"] == 25.0
        assert doc["watch"]["completions"] == doc["total_requests"]

    def test_watch_alerts_reach_trace(self, tmp_path):
        trace = tmp_path / "w.trace.json"
        assert main(self.SERVE + ["--watch", "--watch-target", "0.5",
                                  "--trace", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        alert_rows = [e for e in doc["traceEvents"]
                      if e.get("tid") == 10_000]
        assert alert_rows, "watch alerts must land on the alerts row"

    def test_watch_requires_slo(self, capsys):
        _assert_usage_error(capsys, ["serve", "--watch"],
                            "--watch requires --slo-ms")
        _assert_usage_error(capsys, ["generate", "--watch"],
                            "--watch requires --ttft-slo-ms")

    @pytest.mark.parametrize("flag,value", [
        ("--watch-window-ms", "0"),
        ("--watch-window-ms", "-5"),
        ("--watch-slow-window-ms", "0"),
    ])
    def test_watch_window_must_be_positive(self, capsys, flag, value):
        _assert_usage_error(capsys, self.SERVE + ["--watch", flag, value],
                            "window widths")

    def test_watch_slow_window_must_dominate(self, capsys):
        _assert_usage_error(capsys, self.SERVE + ["--watch",
                                                  "--watch-window-ms", "200",
                                                  "--watch-slow-window-ms",
                                                  "100"], "slow")

    @pytest.mark.parametrize("target", ["0", "1", "1.5", "-0.2"])
    def test_watch_target_must_be_a_fraction(self, capsys, target):
        _assert_usage_error(capsys, self.SERVE + ["--watch", "--watch-target",
                                                  target], "target")

    def test_plan_rejects_watch(self, capsys):
        _assert_usage_error(capsys, ["serve", "--plan", "--slo-ms", "5",
                                     "--watch"], "--plan")

    @pytest.mark.parametrize("value", ["0", "-10"])
    def test_metrics_grid_validated_eagerly(self, capsys, value):
        # Rejected before the simulation runs, even with no --metrics
        # sink (the sampler is the watch window source too).
        _assert_usage_error(capsys, self.SERVE + ["--metrics-grid-ms", value],
                            "grid_ms must be positive")


class TestObsCommand:
    """The obs subcommand family: diff / bench / trace-summary."""

    SERVE = ["serve", "--qps", "200", "--duration-ms", "300",
             "--instances", "2", "--seed", "4", "--slo-ms", "10"]

    def _export(self, tmp_path, capsys, name, extra=()):
        path = tmp_path / name
        assert main(self.SERVE + list(extra) + ["--json"]) == 0
        path.write_text(capsys.readouterr().out)
        return path

    def test_diff_identical_runs_ok(self, tmp_path, capsys):
        a = self._export(tmp_path, capsys, "a.json")
        b = self._export(tmp_path, capsys, "b.json")
        assert main(["obs", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "OK: no significant regressions" in out

    def test_diff_flags_injected_regression(self, tmp_path, capsys):
        a = self._export(tmp_path, capsys, "a.json")
        b = self._export(tmp_path, capsys, "b.json",
                         extra=["--failures", "100:40"])
        assert main(["obs", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "significant regression(s)" in out
        assert str(a) in out and str(b) in out

    def test_diff_json_output(self, tmp_path, capsys):
        a = self._export(tmp_path, capsys, "a.json")
        b = self._export(tmp_path, capsys, "b.json",
                         extra=["--failures", "100:40"])
        assert main(["obs", "diff", str(a), str(b), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False and doc["regressions"]

    def test_diff_missing_file_exits_cleanly(self, capsys, tmp_path):
        _assert_usage_error(capsys, ["obs", "diff", str(tmp_path / "a.json"),
                                     str(tmp_path / "b.json")],
                            "cannot read run export")

    def test_diff_malformed_json_exits_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        _assert_usage_error(capsys, ["obs", "diff", str(bad), str(bad)],
                            "cannot read run export")

    def test_bench_trend_on_committed_history(self, capsys):
        assert main(["obs", "bench"]) == 0
        out = capsys.readouterr().out
        assert "BENCH trend" in out and "metric(s) tracked" in out

    def test_bench_gate_violation_exits_nonzero(self, tmp_path, capsys):
        history = tmp_path / "hist.json"
        history.write_text(json.dumps(
            [{"suite": "s", "metric": "watch_overhead_x", "value": 2.0,
              "units": "x"}]))
        assert main(["obs", "bench", "--results", str(history),
                     "--gate", "watch_overhead_x<=1.05"]) == 1
        assert "GATE VIOLATION" in capsys.readouterr().out

    def test_bench_gate_holds_exits_zero(self, tmp_path, capsys):
        history = tmp_path / "hist.json"
        history.write_text(json.dumps(
            [{"suite": "s", "metric": "watch_overhead_x", "value": 1.01,
              "units": "x"}]))
        assert main(["obs", "bench", "--results", str(history),
                     "--gate", "watch_overhead_x<=1.05", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True and doc["violations"] == []

    def test_bench_bad_gate_expression(self, capsys):
        _assert_usage_error(capsys, ["obs", "bench", "--gate", "metric==1"],
                            "invalid gate")

    def test_bench_missing_results_file(self, capsys, tmp_path):
        _assert_usage_error(capsys, ["obs", "bench", "--results",
                                     str(tmp_path / "none.json")],
                            "cannot read")

    def test_trace_summary_text_and_json(self, tmp_path, capsys):
        trace = tmp_path / "run.trace.json"
        assert main(self.SERVE + ["--watch", "--watch-target", "0.5",
                                  "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "trace-summary", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "span" in out.lower()
        assert main(["obs", "trace-summary", str(trace), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spans"] and doc["threads"]

    def test_trace_summary_rejects_non_trace(self, capsys, tmp_path):
        not_trace = tmp_path / "x.json"
        not_trace.write_text('{"hello": 1}')
        _assert_usage_error(capsys, ["obs", "trace-summary", str(not_trace)],
                            "traceEvents")

    def test_obs_requires_subcommand(self, capsys):
        _assert_usage_error(capsys, ["obs"], "obs_command")


class TestShardsFlag:
    SERVE = ["serve", "--qps", "200", "--duration-ms", "400",
             "--instances", "4", "--batch", "fixed", "--batch-size", "4"]

    def test_shards_one_is_the_default_run(self, capsys):
        """--shards 1 must be byte-identical to omitting the flag."""
        assert main(self.SERVE + ["--json"]) == 0
        plain = capsys.readouterr().out
        assert main(self.SERVE + ["--shards", "1", "--json"]) == 0
        assert capsys.readouterr().out == plain

    def test_sharded_serve_is_deterministic(self, capsys):
        argv = self.SERVE + ["--shards", "2", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert first["total_requests"] > 0
        assert first["instances"] == 4

    def test_sharded_generate_reports(self, capsys):
        assert main(["generate", "--qps", "20", "--duration-ms", "300",
                     "--instances", "2", "--shards", "2", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["total_requests"] > 0
        assert {"p50", "p95", "p99"} <= set(blob["ttft_ms"])

    def test_shard_jobs_needs_shards(self, capsys):
        _assert_usage_error(capsys, self.SERVE + ["--shard-jobs", "2"],
                            "needs --shards")

    def test_nonpositive_shards_rejected(self, capsys):
        _assert_usage_error(capsys, self.SERVE + ["--shards", "0"],
                            "--shards must be >= 1")

    def test_profile_rejected_with_shards(self, capsys):
        _assert_usage_error(capsys, self.SERVE + ["--shards", "2",
                                                  "--profile"],
                            "cannot span --shards")

    def test_observer_rejected_with_shard_jobs(self, capsys, tmp_path):
        trace = tmp_path / "t.json"
        _assert_usage_error(capsys, self.SERVE + ["--shards", "2",
                                                  "--shard-jobs", "2",
                                                  "--trace", str(trace)],
                            "cannot cross")

    def test_plan_threads_shards_through_probes(self, capsys):
        """--plan probes run summary-detail, so a sharded plan search
        works (cells share nothing, so it plans for a *sharded*
        deployment) and is deterministic run to run."""
        argv = ["serve", "--plan", "--slo-ms", "20", "--qps", "200",
                "--duration-ms", "400", "--shards", "2", "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["instances"] >= 1
        assert first["report"]["latency_ms"]["p99"] <= 20.0
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_plan_shards_still_validated(self, capsys):
        _assert_usage_error(capsys, self.SERVE + ["--plan", "--slo-ms", "20",
                                                  "--shards", "0"],
                            "--shards must be >= 1")
        _assert_usage_error(capsys, self.SERVE + ["--plan", "--slo-ms", "20",
                                                  "--shard-jobs", "2"],
                            "needs --shards")
