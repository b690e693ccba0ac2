"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``table1`` / ``table2`` / ``table3`` / ``figure7`` — regenerate one
  evaluation artifact and print the paper-style table.
* ``all`` — regenerate everything.
* ``summary`` — synthesize the published instance and print its
  resource/clock summary plus the BERT-variant headline numbers.
* ``latency <model>`` — latency/GOPS of one model-zoo workload
  (``--list`` to enumerate, ``--json`` for machine-readable output).
* ``power`` — power/energy profile of the published instance.
* ``serve`` — discrete-event multi-instance serving simulation
  (scenario x batching x scheduler x fleet size); ``--plan`` searches
  the minimum fleet meeting a p99 SLO, ``--heterogeneous`` describes
  per-instance speed/capability fleets, ``--failures`` injects
  MTBF/MTTR instance faults (availability + degraded-tail reporting).
* ``partition`` — split one model across K FPGAs (pipeline + tensor
  parallel) and report per-stage cycles, interconnect cost, fill
  latency, and steady-state throughput; ``--gantt`` draws the
  multi-device timeline.
* ``scaling`` — the multi-FPGA scaling-curve experiment.
* ``dse`` — multi-objective design-space exploration over
  (tiles x format x model x partitioning x fleet); ``--jobs`` fans the
  evaluations over a process pool, ``--resume`` reuses the on-disk
  evaluation cache, ``--pareto`` restricts output to the frontier.
* ``generate`` — autoregressive generation serving: token-level
  continuous batching over a fleet, prompt/output length
  distributions, TTFT/TPOT/goodput metrics (``--json``); also takes
  ``--heterogeneous``/``--failures``, plus ``--priority`` for
  priority admission with step-boundary preemption.
* ``obs`` — observability analytics over exported artifacts:
  ``obs diff`` compares two ``--json`` run exports and flags
  significant regressions, ``obs bench`` trends the benchmark
  history (``BENCH_results.json``) against rolling medians with
  optional ``--gate`` expressions, ``obs trace-summary`` aggregates
  a Chrome-trace export (top spans + alert timeline).

``serve`` and ``generate`` also take ``--watch``: an online SLO
watchdog (multi-window burn-rate alerting + anomaly detection) rides
the run as a read-only observer and lands in the report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, NoReturn, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ProTEA reproduction — regenerate the paper's "
                    "tables/figures and query the models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("table1", "table2", "table3", "figure7", "scaling", "all",
                 "summary", "power"):
        sub.add_parser(name)
    lat = sub.add_parser("latency")
    lat.add_argument("model", nargs="?", default=None,
                     help="model-zoo key (omit with --list)")
    lat.add_argument("--list", action="store_true", dest="list_models")
    lat.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable output")

    srv = sub.add_parser(
        "serve", help="simulate a multi-instance serving cluster")
    srv.add_argument("--scenario", default="poisson",
                     choices=("poisson", "bursty", "diurnal", "trace"))
    srv.add_argument("--qps", type=float, default=100.0,
                     help="offered load (peak qps for --scenario diurnal)")
    srv.add_argument("--instances", type=int, default=4)
    srv.add_argument("--policy", default="least-loaded",
                     choices=("round-robin", "least-loaded",
                              "model-affinity"))
    srv.add_argument("--model", action="append", dest="models",
                     metavar="NAME[:WEIGHT]",
                     help="model-zoo entry in the request mix (repeatable; "
                          "default model2-lhc-trigger)")
    srv.add_argument("--duration-ms", type=float, default=1000.0)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--batch", default="none",
                     choices=("none", "fixed", "timeout"))
    srv.add_argument("--batch-size", type=int, default=8)
    srv.add_argument("--batch-timeout-ms", type=float, default=2.0)
    srv.add_argument("--reprogram-ms", type=float, default=0.0,
                     help="workload-switch penalty per instance")
    srv.add_argument("--heterogeneous", default=None, metavar="SPEC",
                     help="per-instance fleet spec "
                          "SPEED[xCOUNT][@MODEL[+MODEL..]],... "
                          "(overrides --instances; e.g. "
                          "'1.0x2,0.5@model2-lhc-trigger')")
    srv.add_argument("--failures", default=None, metavar="MTBF:MTTR",
                     help="inject instance faults: mean up-time and "
                          "mean repair time in ms (e.g. 200:20)")
    srv.add_argument("--slo-ms", type=float, default=None,
                     help="latency SLO for attainment reporting")
    srv.add_argument("--plan", action="store_true",
                     help="search the minimum fleet meeting --slo-ms at p99 "
                          "instead of simulating --instances")
    srv.add_argument("--analytic-only", action="store_true",
                     help="with --plan: report the closed-form fleet "
                          "proposal without confirming simulations")
    srv.add_argument("--confirm", choices=("analytic", "probe"),
                     default="analytic",
                     help="with --plan: how simulation confirms the search "
                          "— 'analytic' (default) starts at the closed-form "
                          "proposal, 'probe' replays the probe-from-1 "
                          "search")
    srv.add_argument("--trace-file", default=None,
                     help="JSON [[t_ms, model], ...] for --scenario trace")
    srv.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome-trace-event JSON of the run "
                          "(open in chrome://tracing or Perfetto)")
    srv.add_argument("--metrics", default=None, metavar="PATH",
                     help="write grid-sampled metrics (JSON, or CSV for "
                          "*.csv paths)")
    srv.add_argument("--metrics-grid-ms", type=float, default=10.0,
                     help="simulated-time sampling grid for --metrics")
    srv.add_argument("--watch", action="store_true",
                     help="attach an SLO watchdog (burn-rate alerting + "
                          "anomaly detection; requires --slo-ms)")
    srv.add_argument("--watch-window-ms", type=float, default=100.0,
                     help="fast burn-rate window for --watch")
    srv.add_argument("--watch-slow-window-ms", type=float, default=500.0,
                     help="slow burn-rate window for --watch")
    srv.add_argument("--watch-target", type=float, default=0.99,
                     help="SLO attainment target for the --watch error "
                          "budget (fraction in (0, 1))")
    srv.add_argument("--shards", type=int, default=1, metavar="N",
                     help="partition the fleet into N independent cells "
                          "and merge their summary reports (1 = the "
                          "ordinary single-loop run)")
    srv.add_argument("--shard-jobs", type=int, default=None, metavar="J",
                     help="run shard cells in J worker processes "
                          "(>= 2; default: serially in-process)")
    srv.add_argument("--profile", action="store_true",
                     help="report kernel wall time per event kind")
    srv.add_argument("--json", action="store_true", dest="as_json")

    gen = sub.add_parser(
        "generate",
        help="autoregressive generation serving (continuous batching)")
    gen.add_argument("--scenario", default="poisson",
                     choices=("poisson", "bursty", "diurnal"))
    gen.add_argument("--qps", type=float, default=20.0,
                     help="offered request load (peak for diurnal)")
    gen.add_argument("--instances", type=int, default=2)
    gen.add_argument("--slots", type=int, default=8,
                     help="in-flight sequence slots per instance")
    gen.add_argument("--policy", default="least-loaded",
                     choices=("round-robin", "least-loaded",
                              "model-affinity"))
    gen.add_argument("--model", action="append", dest="models",
                     metavar="NAME[:WEIGHT]",
                     help="model-zoo entry in the request mix (repeatable; "
                          "default model2-lhc-trigger)")
    gen.add_argument("--prompt-tokens", default="16", metavar="SPEC",
                     help="prompt length: N, LO:HI, or geo:LO:MEAN")
    gen.add_argument("--output-tokens", default="32", metavar="SPEC",
                     help="output length: N, LO:HI, or geo:LO:MEAN")
    gen.add_argument("--duration-ms", type=float, default=1000.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--reprogram-ms", type=float, default=0.0,
                     help="workload-switch penalty per instance")
    gen.add_argument("--heterogeneous", default=None, metavar="SPEC",
                     help="per-instance fleet spec "
                          "SPEED[/SLOTS][xCOUNT][@MODEL[+MODEL..]],... "
                          "(overrides --instances)")
    gen.add_argument("--failures", default=None, metavar="MTBF:MTTR",
                     help="inject instance faults: mean up-time and "
                          "mean repair time in ms (e.g. 200:20)")
    gen.add_argument("--priority", type=float, default=None,
                     metavar="FRAC",
                     help="mark this fraction of requests high-priority "
                          "(admitted first, may preempt at step "
                          "boundaries)")
    gen.add_argument("--ttft-slo-ms", type=float, default=None,
                     help="time-to-first-token SLO for goodput")
    gen.add_argument("--tpot-slo-ms", type=float, default=None,
                     help="time-per-output-token SLO for goodput")
    gen.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome-trace-event JSON of the run "
                          "(open in chrome://tracing or Perfetto)")
    gen.add_argument("--metrics", default=None, metavar="PATH",
                     help="write grid-sampled metrics (JSON, or CSV for "
                          "*.csv paths)")
    gen.add_argument("--metrics-grid-ms", type=float, default=10.0,
                     help="simulated-time sampling grid for --metrics")
    gen.add_argument("--watch", action="store_true",
                     help="attach an SLO watchdog on TTFT (burn-rate "
                          "alerting + anomaly detection; requires "
                          "--ttft-slo-ms)")
    gen.add_argument("--watch-window-ms", type=float, default=100.0,
                     help="fast burn-rate window for --watch")
    gen.add_argument("--watch-slow-window-ms", type=float, default=500.0,
                     help="slow burn-rate window for --watch")
    gen.add_argument("--watch-target", type=float, default=0.99,
                     help="SLO attainment target for the --watch error "
                          "budget (fraction in (0, 1))")
    gen.add_argument("--shards", type=int, default=1, metavar="N",
                     help="partition the fleet into N independent cells "
                          "and merge their summary reports (1 = the "
                          "ordinary single-loop run)")
    gen.add_argument("--shard-jobs", type=int, default=None, metavar="J",
                     help="run shard cells in J worker processes "
                          "(>= 2; default: serially in-process)")
    gen.add_argument("--profile", action="store_true",
                     help="report kernel wall time per event kind")
    gen.add_argument("--json", action="store_true", dest="as_json")

    par = sub.add_parser(
        "partition", help="partition one model across K FPGAs")
    par.add_argument("model", help="model-zoo key")
    par.add_argument("-k", "--devices", type=int, default=2,
                     help="total device count (default 2)")
    par.add_argument("--tp", default="auto",
                     help="tensor-parallel ways per stage (int, or 'auto' "
                          "to search the best depth x width factorization)")
    par.add_argument("--link", default="aurora",
                     choices=("aurora", "eth100g", "eth10g", "pcie4x8"),
                     help="inter-device interconnect preset")
    par.add_argument("--gantt", type=int, default=0, metavar="ITEMS",
                     help="also draw the pipeline timeline for N items")
    par.add_argument("--json", action="store_true", dest="as_json")

    dse = sub.add_parser(
        "dse", help="multi-objective design-space exploration")
    dse.add_argument("--strategy", default="grid",
                     choices=("grid", "random", "evolutionary"))
    dse.add_argument("--model", action="append", dest="models",
                     metavar="NAME",
                     help="model-zoo entries for the model axis "
                          "(repeatable; default bert-variant + "
                          "model2-lhc-trigger)")
    dse.add_argument("--tiles-mha", default="8,12,48", metavar="LIST",
                     help="MHA tile-count axis (comma-separated)")
    dse.add_argument("--tiles-ffn", default="3,6", metavar="LIST",
                     help="FFN tile-count axis (comma-separated)")
    dse.add_argument("--formats", default="fix8", metavar="LIST",
                     help="datapath-format axis (fix8, fix16)")
    dse.add_argument("--devices", default="1", metavar="LIST",
                     help="multi-FPGA partitioning-degree axis")
    dse.add_argument("--fleet", default="1", metavar="LIST",
                     help="serving fleet-size axis (replicas)")
    dse.add_argument("--schedulers", default="least-loaded",
                     metavar="LIST",
                     help="dispatch-policy axis (round-robin, "
                          "least-loaded, model-affinity)")
    dse.add_argument("--objectives",
                     default="latency_ms,throughput_inf_s,p99_ms,power_w",
                     metavar="LIST",
                     help="frontier dimensions (also: util_pct, "
                          "ttft_p99_ms, tokens_per_s, availability, "
                          "p99_degraded_ms, alert_minutes, budget_burn)")
    dse.add_argument("--qps", type=float, default=200.0,
                     help="offered load for the p99 objective")
    dse.add_argument("--duration-ms", type=float, default=300.0)
    dse.add_argument("--seed", type=int, default=0,
                     help="workload + strategy seed")
    dse.add_argument("--link", default="aurora",
                     choices=("aurora", "eth100g", "eth10g", "pcie4x8"),
                     help="interconnect preset for devices > 1")
    dse.add_argument("--samples", type=int, default=16,
                     help="point budget for --strategy random")
    dse.add_argument("--population", type=int, default=8,
                     help="per-generation size for --strategy evolutionary")
    dse.add_argument("--generations", type=int, default=4,
                     help="generation count for --strategy evolutionary")
    dse.add_argument("--jobs", type=int, default=1,
                     help="persistent evaluation worker processes "
                          "(forked once per exploration)")
    dse.add_argument("--batch", type=int, default=None, metavar="N",
                     help="points per worker dispatch (default: "
                          "auto-sized from the batch and axis sizes)")
    dse.add_argument("--prescreen", action="store_true",
                     help="score candidates with the closed-form "
                          "surrogate first and fully evaluate only "
                          "the surviving fronts")
    dse.add_argument("--prescreen-keep", type=float, default=None,
                     metavar="FRACTION",
                     help="fraction of each batch the prescreen "
                          "forwards (default 0.35; whole Pareto fronts "
                          "are kept, so survivors may exceed this)")
    dse.add_argument("--pareto", action="store_true",
                     help="report only the Pareto frontier")
    dse.add_argument("--resume", action="store_true",
                     help="reuse the on-disk evaluation cache "
                          "(skips already-scored points)")
    dse.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="evaluation-cache directory "
                          "(default .dse_cache; implies --resume)")
    dse.add_argument("--profile", action="store_true",
                     help="report cache hit/miss counts, per-point eval "
                          "wall time, and per-worker dispatch/idle time")
    dse.add_argument("--json", action="store_true", dest="as_json")

    obs = sub.add_parser(
        "obs", help="observability analytics over exported artifacts")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    od = obs_sub.add_parser(
        "diff", help="compare two --json run exports for regressions")
    od.add_argument("run_a", help="baseline --json export")
    od.add_argument("run_b", help="candidate --json export")
    od.add_argument("--rtol", type=float, default=0.05,
                    help="relative tolerance band (default 0.05)")
    od.add_argument("--atol", type=float, default=1e-9,
                    help="absolute tolerance floor (default 1e-9)")
    od.add_argument("--json", action="store_true", dest="as_json")
    ob = obs_sub.add_parser(
        "bench", help="trend the benchmark history vs rolling medians")
    ob.add_argument("--results",
                    default="benchmarks/output/BENCH_results.json",
                    metavar="PATH", help="BENCH results file")
    ob.add_argument("--window", type=int, default=8,
                    help="rolling-median baseline size (default 8)")
    ob.add_argument("--rtol", type=float, default=0.10,
                    help="steady band around the median (default 0.10)")
    ob.add_argument("--gate", action="append", dest="gates",
                    metavar="METRIC<=VALUE",
                    help="fail (exit 1) when a metric's latest value "
                         "violates the bound (repeatable; also >=)")
    ob.add_argument("--json", action="store_true", dest="as_json")
    ot = obs_sub.add_parser(
        "trace-summary",
        help="aggregate a Chrome-trace export (top spans, alerts)")
    ot.add_argument("trace", help="trace JSON written by --trace")
    ot.add_argument("--top", type=int, default=10,
                    help="span rows to show (default 10)")
    ot.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_experiment(name: str) -> None:
    from . import experiments

    module = getattr(experiments, name)
    print(module.render())
    if name == "figure7":
        print()
        print(module.ascii_plot())


def _cmd_summary() -> None:
    from .experiments.common import default_accelerator
    from .nn import BERT_VARIANT

    accel = default_accelerator()
    print(accel.summary())
    rep = accel.latency_report(BERT_VARIANT)
    print(f"BERT variant: {rep.latency_ms:.1f} ms, "
          f"{accel.throughput_gops(BERT_VARIANT):.1f} GOPS "
          f"(paper: 279 ms, 53 GOPS)")


def _cmd_latency(model: Optional[str], list_models: bool,
                 as_json: bool = False) -> None:
    from .analysis.metrics import gops
    from .experiments.common import default_accelerator
    from .nn import MODEL_ZOO, get_model

    if list_models or model is None:
        if as_json:
            print(json.dumps({
                name: {"seq_len": cfg.seq_len, "d_model": cfg.d_model,
                       "num_heads": cfg.num_heads,
                       "num_layers": cfg.num_layers}
                for name, cfg in sorted(MODEL_ZOO.items())
            }, indent=2))
            return
        for name, cfg in sorted(MODEL_ZOO.items()):
            print(f"{name:24s} SL={cfg.seq_len:4d} d={cfg.d_model:4d} "
                  f"h={cfg.num_heads} N={cfg.num_layers}")
        return
    cfg = get_model(model)
    accel = default_accelerator()
    rep = accel.latency_report(cfg)
    if as_json:
        print(json.dumps({
            "model": cfg.name,
            "latency_ms": rep.latency_ms,
            "gops": gops(cfg, rep.latency_s),
            "clock_mhz": accel.clock_mhz,
            "total_cycles": rep.total_cycles,
        }, indent=2))
        return
    print(f"{cfg.name}: {rep.latency_ms:.3f} ms, "
          f"{gops(cfg, rep.latency_s):.2f} GOPS "
          f"@ {accel.clock_mhz:.0f} MHz")


def _cmd_power() -> None:
    from .analysis.metrics import gops
    from .analysis.traffic import analyze_traffic
    from .experiments.common import default_accelerator
    from .fpga.power import GPU_CPU_TDP_W, PowerModel, PowerReport
    from .nn import BERT_VARIANT

    accel = default_accelerator()
    rep = accel.latency_report(BERT_VARIANT)
    traffic = analyze_traffic(accel, BERT_VARIANT)
    g = gops(BERT_VARIANT, rep.latency_s)
    power = PowerReport.evaluate(
        PowerModel(), accel.resources, accel.clock_mhz,
        rep.latency_s, g, traffic.achieved_gbps)
    print(f"ProTEA on {accel.device.name}:")
    print(f"  board power : {power.total_w:6.1f} W "
          f"({power.static_w:.1f} static + {power.dynamic_w:.1f} dynamic)")
    print(f"  energy      : {power.energy_per_inference_j:6.3f} J/inference")
    print(f"  efficiency  : {power.gops_per_w:6.2f} GOPS/W")
    print("\ncomparator TDPs (published):")
    for name, tdp in sorted(GPU_CPU_TDP_W.items()):
        print(f"  {name:24s} {tdp:6.1f} W")


def _usage_error(command: str, message: str) -> NoReturn:
    """Exit like an argparse usage error: one line on stderr, status 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_load_args(args) -> None:
    """Reject load knobs and SLO targets that would hang a run or
    report nothing.

    An infinite ``--qps`` never finishes generating arrivals, and a NaN
    one silently generates none; a NaN SLO is met by nothing (a
    ``--plan`` search probes every fleet size) yet reads as attained.
    All fail here instead, before any workload is built.
    """
    checks = (("--qps", args.qps), ("--duration-ms", args.duration_ms),
              ("--slo-ms", getattr(args, "slo_ms", None)),
              ("--ttft-slo-ms", getattr(args, "ttft_slo_ms", None)),
              ("--tpot-slo-ms", getattr(args, "tpot_slo_ms", None)))
    for flag, value in checks:
        if value is not None and not (math.isfinite(value) and value > 0):
            _usage_error(args.command,
                         f"{flag} must be finite and > 0, got {value:g}")
    timeout_ms = getattr(args, "batch_timeout_ms", 0.0)
    if not (math.isfinite(timeout_ms) and timeout_ms >= 0):
        _usage_error(args.command, "--batch-timeout-ms must be finite and "
                     f">= 0, got {timeout_ms:g}")


def _parse_mix(entries: Optional[List[str]]):
    """``name[:weight]`` CLI entries → ModelMix (validates names)."""
    from .nn import MODEL_ZOO
    from .serving import ModelMix

    if not entries:
        entries = ["model2-lhc-trigger"]
    weights = {}
    for entry in entries:
        name, _, w = entry.partition(":")
        if name not in MODEL_ZOO:
            raise SystemExit(
                f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}")
        try:
            weight = float(w) if w else 1.0
        except ValueError:
            raise SystemExit(
                f"invalid weight {w!r} in --model {entry!r} "
                "(expected NAME or NAME:FLOAT)") from None
        weights[name] = weights.get(name, 0.0) + weight
    try:
        return ModelMix(weights)
    except ValueError as exc:  # e.g. negative weights
        raise SystemExit(f"invalid model mix: {exc}") from None


def _build_workload(args, mix):
    from .serving import (BurstyArrivals, DiurnalArrivals, PoissonArrivals,
                          TraceReplay)

    if args.scenario == "poisson":
        gen = PoissonArrivals(args.qps, mix, seed=args.seed)
    elif args.scenario == "bursty":
        gen = BurstyArrivals(args.qps, mix, seed=args.seed)
    elif args.scenario == "diurnal":
        gen = DiurnalArrivals(args.qps, mix, seed=args.seed,
                              period_ms=args.duration_ms)
    else:  # trace
        from .nn import MODEL_ZOO

        if not args.trace_file:
            raise SystemExit("--scenario trace requires --trace-file")
        with open(args.trace_file) as fh:
            events = [(float(t), str(m)) for t, m in json.load(fh)]
        unknown = sorted({m for _, m in events} - set(MODEL_ZOO))
        if unknown:
            raise SystemExit(
                f"trace names unknown models {unknown}; "
                f"available: {sorted(MODEL_ZOO)}")
        gen = TraceReplay(events)
    return gen.generate(args.duration_ms)


def _parse_fleet(args, requests, generation: bool):
    """``--heterogeneous`` / ``--failures`` → (FleetSpec, FailurePlan).

    Validates eagerly — unknown pinned models, capability sets that
    leave part of the workload unservable, and serve-mode ``/SLOTS``
    entries all exit with a message here instead of crashing the
    simulation mid-run.
    """
    from .nn import MODEL_ZOO
    from .sim import FailurePlan, FleetSpec

    fleet = failures = None
    if args.heterogeneous:
        try:
            fleet = FleetSpec.parse(args.heterogeneous)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        unknown = sorted(
            {m for s in fleet.specs for m in (s.models or ())}
            - set(MODEL_ZOO))
        if unknown:
            raise SystemExit(
                f"--heterogeneous pins unknown models {unknown}; "
                f"available: {sorted(MODEL_ZOO)}")
        if not generation and any(s.slots is not None for s in fleet.specs):
            raise SystemExit(
                "--heterogeneous /SLOTS entries are a generate-mode "
                "knob; the request-level serve simulation has no "
                "sequence slots")
        unservable = sorted(
            {r.model for r in requests}
            - {m for s in fleet.specs for m in (s.models or MODEL_ZOO)})
        if unservable:
            raise SystemExit(
                f"--heterogeneous leaves the workload's models "
                f"{unservable} unservable: no instance's capability "
                "set covers them")
    if args.failures:
        try:
            failures = FailurePlan.parse(args.failures, seed=args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    return fleet, failures


def _make_observer(args, watch_slo_ms=None, watch_slo_flag="--slo-ms"):
    """Build (observer, tracer, sampler, watchdog, profiler) from
    serve/generate observability flags; everything is None when the
    flags are off.

    Knob values are validated eagerly — a bad grid or window width
    exits with a message even when the flag that would consume it
    (``--metrics``/``--watch``) is off, instead of silently riding
    along until someone turns it on.
    """
    from .obs import (KernelProfiler, MetricsSampler, TraceRecorder,
                      Watchdog, compose)

    if args.metrics_grid_ms <= 0:
        raise SystemExit(
            f"invalid --metrics-grid-ms {args.metrics_grid_ms:g}: "
            "grid_ms must be positive")
    for flag, value in (("--watch-window-ms", args.watch_window_ms),
                        ("--watch-slow-window-ms",
                         args.watch_slow_window_ms)):
        if value <= 0:
            raise SystemExit(
                f"invalid {flag} {value:g}: window widths must be "
                "positive")
    if args.watch_slow_window_ms < args.watch_window_ms:
        raise SystemExit(
            f"--watch-slow-window-ms ({args.watch_slow_window_ms:g}) "
            f"must be >= --watch-window-ms ({args.watch_window_ms:g})")
    if not 0.0 < args.watch_target < 1.0:
        raise SystemExit(
            f"invalid --watch-target {args.watch_target:g}: expected "
            "an attainment fraction in (0, 1)")
    tracer = TraceRecorder() if args.trace else None
    sampler = (MetricsSampler(grid_ms=args.metrics_grid_ms)
               if args.metrics else None)
    watchdog = None
    if args.watch:
        if watch_slo_ms is None:
            raise SystemExit(f"--watch requires {watch_slo_flag} "
                             "(the SLO the watchdog guards)")
        watchdog = Watchdog(slo_ms=watch_slo_ms, target=args.watch_target,
                            fast_window_ms=args.watch_window_ms,
                            slow_window_ms=args.watch_slow_window_ms)
    profiler = KernelProfiler() if args.profile else None
    return (compose(tracer, sampler, watchdog), tracer, sampler, watchdog,
            profiler)


def _dump_obs(args, tracer, sampler, run_config) -> None:
    """Write --trace / --metrics exports, owning the exit message."""
    try:
        if tracer is not None:
            tracer.dump(args.trace, run_config)
        if sampler is not None:
            sampler.registry.dump(args.metrics, run_config)
    except OSError as exc:
        raise SystemExit(
            f"cannot write observability output: {exc}") from None


def _run_config(args, command: str, fleet) -> dict:
    """The knobs that reproduce this run (embedded in --json output,
    trace metadata, and metrics exports so they stay correlatable)."""
    from . import __version__

    rc = {
        "command": command,
        "repro_version": __version__,
        "scenario": args.scenario,
        "qps": args.qps,
        "duration_ms": args.duration_ms,
        "seed": args.seed,
        "policy": args.policy,
        "models": list(args.models) if args.models else None,
        "reprogram_ms": args.reprogram_ms,
        "failures": args.failures,
    }
    if fleet is not None:
        rc["fleet"] = fleet.describe()
    else:
        rc["instances"] = args.instances
    if command == "serve":
        rc.update(batch=args.batch, batch_size=args.batch_size,
                  batch_timeout_ms=args.batch_timeout_ms,
                  slo_ms=args.slo_ms)
    else:
        rc.update(slots=args.slots, prompt_tokens=args.prompt_tokens,
                  output_tokens=args.output_tokens,
                  priority_fraction=args.priority,
                  ttft_slo_ms=args.ttft_slo_ms,
                  tpot_slo_ms=args.tpot_slo_ms)
    if args.watch:
        rc["watch"] = {"target": args.watch_target,
                       "fast_window_ms": args.watch_window_ms,
                       "slow_window_ms": args.watch_slow_window_ms}
    return rc


def _shard_kwargs(args, observing: bool) -> dict:
    """Validate ``--shards``/``--shard-jobs`` into simulate() kwargs.

    ``--shards 1`` (the default) is the ordinary single-loop run;
    anything larger switches to the summary-detail sharded path, which
    a :func:`summarize`/:func:`summarize_generation` call consumes the
    same way it consumes a full result.
    """
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.shards == 1:
        if args.shard_jobs is not None:
            raise SystemExit("--shard-jobs needs --shards > 1")
        return {}
    if args.profile:
        raise SystemExit(
            "--profile times one event loop and cannot span --shards "
            "cells; profile a --shards 1 run")
    if observing and args.shard_jobs is not None and args.shard_jobs >= 2:
        raise SystemExit(
            "--trace/--metrics/--watch observers cannot cross "
            "--shard-jobs processes; drop --shard-jobs to run the "
            "cells serially in-process")
    return {"detail": "summary", "shards": args.shards,
            "shard_jobs": args.shard_jobs}


def _cmd_serve(args) -> None:
    from .experiments.common import default_accelerator
    from .serving import (get_batching, plan_capacity, render_capacity_plan,
                          render_serving_report, simulate, summarize)

    _check_load_args(args)
    mix = _parse_mix(args.models)
    requests = _build_workload(args, mix)
    accel = default_accelerator()
    try:
        batching = get_batching(args.batch, args.batch_size,
                                args.batch_timeout_ms)
    except ValueError as exc:
        _usage_error("serve", str(exc))
    fleet, failures = _parse_fleet(args, requests, generation=False)

    if args.plan:
        if fleet is not None:
            raise SystemExit(
                "--plan searches fleet *size* and cannot honor a fixed "
                "--heterogeneous spec")
        if args.slo_ms is None:
            raise SystemExit("--plan requires --slo-ms")
        if args.trace or args.metrics or args.profile or args.watch:
            raise SystemExit(
                "--trace/--metrics/--profile/--watch instrument a "
                "single run and cannot observe a --plan search "
                "(many runs)")
        if args.analytic_only and args.confirm == "probe":
            raise SystemExit(
                "--analytic-only skips the confirming simulations that "
                "--confirm probe asks for; drop one of the two")
        # The confirming probes run summary-detail, so they can shard:
        # reuse the ordinary validation (shards >= 1, --shard-jobs
        # needs --shards > 1) and thread the kwargs through.
        shard_kwargs = _shard_kwargs(args, observing=False)
        # Gate throughput on the *realized* offered load: for diurnal
        # (where --qps is the peak) and bursty seeds the generated rate
        # sits below nominal, and the nominal gate could never be met.
        realized_qps = (len(requests) / args.duration_ms * 1e3
                        if args.scenario != "trace" and requests else None)
        try:
            plan = plan_capacity(
                accel, requests, target_p99_ms=args.slo_ms,
                target_qps=realized_qps,
                scheduler=args.policy, batching=batching,
                reprogram_latency_ms=args.reprogram_ms,
                failures=failures,
                mode=args.confirm, confirm=not args.analytic_only,
                shards=shard_kwargs.get("shards", 1),
                shard_jobs=shard_kwargs.get("shard_jobs"))
        except ValueError as exc:
            _usage_error("serve", str(exc))
        if args.as_json:
            out = {
                "instances": plan.instances,
                "target_p99_ms": plan.target_p99_ms,
                "mode": ("analytic-only" if args.analytic_only
                         else args.confirm),
                "probes": {str(n): p for n, p in plan.probes.items()},
            }
            if plan.report is not None:
                out["report"] = plan.report.as_dict()
            if plan.analytic is not None:
                out["analytic"] = plan.analytic.as_dict()
            print(json.dumps(out, indent=2))
        else:
            print(render_capacity_plan(plan))
        return

    if args.analytic_only or args.confirm != "analytic":
        raise SystemExit(
            "--analytic-only/--confirm steer a --plan search; add --plan")

    observer, tracer, sampler, watchdog, profiler = _make_observer(
        args, watch_slo_ms=args.slo_ms, watch_slo_flag="--slo-ms")
    shard_kwargs = _shard_kwargs(args, observing=observer is not None)
    run_cfg = _run_config(args, "serve", fleet)
    try:
        result = simulate(
            accel, requests, None if fleet else args.instances,
            scheduler=args.policy, batching=batching,
            reprogram_latency_ms=args.reprogram_ms,
            fleet=fleet, failures=failures,
            observer=observer, profiler=profiler, **shard_kwargs)
    except ValueError as exc:  # e.g. --instances 0, --reprogram-ms -5
        _usage_error("serve", str(exc))
    report = summarize(
        result, slo_ms=args.slo_ms,
        watch=watchdog.summary() if watchdog is not None else None)
    if watchdog is not None and tracer is not None:
        watchdog.annotate(tracer)
    _dump_obs(args, tracer, sampler, run_cfg)
    n_inst = fleet.n if fleet else args.instances
    if args.as_json:
        out = {"scenario": args.scenario, "qps": args.qps,
               "duration_ms": args.duration_ms, "seed": args.seed,
               "reprogram_ms": args.reprogram_ms,
               "run_config": run_cfg}
        if fleet is not None:
            out["fleet"] = fleet.describe()
        out.update(report.as_dict())
        if profiler is not None:
            out["profile"] = profiler.as_dict()
        print(json.dumps(out, indent=2))
    else:
        print(render_serving_report(
            report,
            title=(f"Serving: {args.scenario} @ {args.qps:g} qps, "
                   f"{n_inst} instance(s), {args.policy}")))
        if profiler is not None:
            from .obs import render_kernel_profile

            print()
            print(render_kernel_profile(profiler))


def _cmd_generate(args) -> None:
    from .experiments.common import default_accelerator
    from .serving import (LengthSampler, attach_generation_lengths,
                          attach_priorities, render_generation_report,
                          simulate_generation, summarize_generation)

    _check_load_args(args)
    mix = _parse_mix(args.models)
    arrivals = _build_workload(args, mix)
    accel = default_accelerator()
    try:
        prompt = LengthSampler.parse(args.prompt_tokens)
        output = LengthSampler.parse(args.output_tokens)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    fleet, failures = _parse_fleet(args, arrivals, generation=True)
    requests = attach_generation_lengths(
        arrivals, prompt, output, seed=args.seed,
        max_total=accel.synth.max_seq_len)
    if args.priority is not None:
        try:
            requests = attach_priorities(requests, args.priority,
                                         seed=args.seed)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
    observer, tracer, sampler, watchdog, profiler = _make_observer(
        args, watch_slo_ms=args.ttft_slo_ms, watch_slo_flag="--ttft-slo-ms")
    shard_kwargs = _shard_kwargs(args, observing=observer is not None)
    run_cfg = _run_config(args, "generate", fleet)
    try:
        result = simulate_generation(
            accel, requests, None if fleet else args.instances,
            slots=args.slots, scheduler=args.policy,
            reprogram_latency_ms=args.reprogram_ms,
            fleet=fleet, failures=failures,
            observer=observer, profiler=profiler, **shard_kwargs)
    except ValueError as exc:  # e.g. --instances 0, --slots 0
        _usage_error("generate", str(exc))
    report = summarize_generation(
        result, ttft_slo_ms=args.ttft_slo_ms,
        tpot_slo_ms=args.tpot_slo_ms,
        watch=watchdog.summary() if watchdog is not None else None)
    if watchdog is not None and tracer is not None:
        watchdog.annotate(tracer)
    _dump_obs(args, tracer, sampler, run_cfg)
    n_inst = fleet.n if fleet else args.instances
    if args.as_json:
        out = {"scenario": args.scenario, "qps": args.qps,
               "duration_ms": args.duration_ms, "seed": args.seed,
               "prompt_tokens": args.prompt_tokens,
               "output_tokens": args.output_tokens,
               "reprogram_ms": args.reprogram_ms,
               "run_config": run_cfg}
        if fleet is not None:
            out["fleet"] = fleet.describe()
        if args.priority is not None:
            out["priority_fraction"] = args.priority
        out.update(report.as_dict())
        if profiler is not None:
            out["profile"] = profiler.as_dict()
        print(json.dumps(out, indent=2))
    else:
        print(render_generation_report(
            report,
            title=(f"Generation: {args.scenario} @ {args.qps:g} qps, "
                   f"{n_inst} instance(s) x {args.slots} slot(s), "
                   f"{args.policy}")))
        if profiler is not None:
            from .obs import render_kernel_profile

            print()
            print(render_kernel_profile(profiler))


def _cmd_partition(args) -> None:
    from .analysis.tables import render_table
    from .experiments.common import default_accelerator
    from .nn import get_model
    from .parallel import PipelinePartitioner, get_link

    cfg = get_model(args.model)
    accel = default_accelerator()
    partitioner = PipelinePartitioner(accel, get_link(args.link))
    if args.tp == "auto":
        plan = partitioner.best_plan(cfg, args.devices)
    else:
        try:
            tp = int(args.tp)
        except ValueError:
            raise SystemExit(
                f"invalid --tp {args.tp!r} (expected an integer or 'auto')"
            ) from None
        plan = partitioner.plan(cfg, args.devices, tp)

    # Single-device comparison (only when the workload fits one device).
    single_ms = single_inf_s = None
    if cfg.num_layers <= accel.synth.max_layers:
        rep = accel.latency_report(cfg)
        single_ms = rep.latency_ms
        single_inf_s = 1e3 / rep.latency_ms

    if args.as_json:
        out = plan.as_dict()
        if single_ms is not None:
            out["single_device"] = {"latency_ms": single_ms,
                                    "inf_per_s": single_inf_s}
            out["steady_state"]["speedup"] = (
                plan.steady_state_inf_per_s * single_ms / 1e3)
        print(json.dumps(out, indent=2))
    else:
        rows = [
            (s.index, f"[{s.layer_start}, {s.layer_end})", s.num_layers,
             s.tp_ways, s.cycles, plan.bubble_cycles[s.index])
            for s in plan.stages
        ]
        print(render_table(
            ("stage", "layers", "n", "tp", "cycles", "bubble cyc"), rows,
            title=(f"{cfg.name} across {plan.n_devices} device(s): "
                   f"{plan.num_stages} stage(s) x tp"
                   f"{plan.stages[0].tp_ways} over {plan.link.name}")))
        print(f"\ninterconnect : {plan.boundary_bytes} B/boundary, "
              f"{plan.link_cycles} cyc/hop, "
              f"{plan.interconnect_cycles} cyc end-to-end")
        print(f"fill latency : {plan.fill_ms:.3f} ms "
              f"({plan.fill_cycles:,} cyc)")
        print(f"steady state : {plan.steady_state_inf_per_s:.2f} inf/s "
              f"(period {plan.bottleneck_cycles:,} cyc, "
              f"bubbles {plan.bubble_fraction:.1%})")
        if single_ms is not None:
            print(f"single device: {single_ms:.3f} ms, "
                  f"{single_inf_s:.2f} inf/s  ->  speedup "
                  f"{plan.steady_state_inf_per_s / single_inf_s:.2f}x")
        if args.gantt:
            print()
            print(plan.timeline(args.gantt).gantt())


def _csv_ints(text: str, flag: str) -> tuple:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise SystemExit(
            f"invalid {flag} {text!r} (expected comma-separated "
            "integers)") from None


def _csv_strs(text: str) -> tuple:
    return tuple(v.strip() for v in text.split(",") if v.strip())


def _cmd_dse(args) -> None:
    from .dse import (EvalCache, evaluate_point, explore, get_objectives,
                      render_exploration, standard_space)
    from .dse.objectives import (FAILURE_OBJECTIVE_NAMES,
                                 GENERATION_OBJECTIVE_NAMES,
                                 WATCH_OBJECTIVE_NAMES)

    if args.jobs < 1:
        raise SystemExit(f"invalid --jobs {args.jobs} (expected >= 1)")
    if args.batch is not None and args.batch < 1:
        raise SystemExit(f"invalid --batch {args.batch} (expected >= 1)")
    if args.prescreen_keep is not None and not args.prescreen:
        raise SystemExit("--prescreen-keep requires --prescreen")
    _check_load_args(args)
    try:
        space = standard_space(
            models=tuple(args.models or ("bert-variant",
                                         "model2-lhc-trigger")),
            tiles_mha=_csv_ints(args.tiles_mha, "--tiles-mha"),
            tiles_ffn=_csv_ints(args.tiles_ffn, "--tiles-ffn"),
            formats=_csv_strs(args.formats),
            devices=_csv_ints(args.devices, "--devices"),
            fleets=_csv_ints(args.fleet, "--fleet"),
            schedulers=_csv_strs(args.schedulers),
        )
        objectives = get_objectives(_csv_strs(args.objectives))
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"invalid search space: {exc}") from None

    cache = None
    if args.resume or args.cache_dir:
        cache = EvalCache(args.cache_dir or ".dse_cache")
    # The generation and failure-injection simulations each add real
    # per-point cost: only pay for the ones whose objectives are asked.
    selected = {o.name for o in objectives}
    needs_gen = bool(set(GENERATION_OBJECTIVE_NAMES) & selected)
    needs_fail = bool(set(FAILURE_OBJECTIVE_NAMES) & selected)
    needs_watch = bool(set(WATCH_OBJECTIVE_NAMES) & selected)
    settings = {"qps": args.qps, "duration_ms": args.duration_ms,
                "seed": args.seed, "link": args.link,
                "gen_objectives": needs_gen,
                "fail_objectives": needs_fail,
                "watch_objectives": needs_watch}
    strategy = args.strategy
    strategy_options = {"seed": args.seed, "samples": args.samples,
                        "population": args.population,
                        "generations": args.generations}
    if args.prescreen:
        # The chosen strategy becomes the inner proposal loop; the
        # prescreen wrapper filters its batches through the surrogate.
        strategy_options["inner"] = strategy
        strategy = "prescreen"
        if args.prescreen_keep is not None:
            strategy_options["keep"] = args.prescreen_keep
    result = explore(
        space, evaluate_point,
        objectives=objectives,
        strategy=strategy,
        strategy_options=strategy_options,
        settings=settings,
        jobs=args.jobs,
        batch_size=args.batch,
        cache=cache,
        profile=args.profile,
    )
    if args.as_json:
        out = result.as_dict()
        if args.pareto:
            del out["results"]
        print(json.dumps(out, indent=2))
    else:
        print(render_exploration(
            result, pareto_only=args.pareto,
            title=f"DSE: {result.strategy} over {space.size} "
                  "grid point(s)"))


def _cmd_obs(args) -> int:
    """``obs diff`` / ``obs bench`` / ``obs trace-summary``.

    Returns the process exit code: 1 when a diff finds regressions or
    a bench gate is violated, 0 otherwise — so CI can gate on it.
    """
    if args.obs_command == "diff":
        from .obs.diff import diff_runs, load_run, render_diff

        try:
            run_a = load_run(args.run_a)
            run_b = load_run(args.run_b)
        except (OSError, ValueError) as exc:
            # ValueError also covers json.JSONDecodeError
            raise SystemExit(f"cannot read run export: {exc}") from None
        try:
            report = diff_runs(run_a, run_b, rtol=args.rtol,
                               atol=args.atol)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        if args.as_json:
            print(json.dumps(report.as_dict(), indent=2))
        else:
            print(render_diff(report, name_a=args.run_a,
                              name_b=args.run_b))
        return 0 if report.ok else 1

    if args.obs_command == "bench":
        from .obs.bench_history import (bench_trend, check_gates,
                                        load_history, parse_gate,
                                        render_bench_trend)

        try:
            gates = [parse_gate(g) for g in (args.gates or [])]
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        try:
            history = load_history(args.results)
        except (OSError, ValueError) as exc:
            # ValueError also covers json.JSONDecodeError
            raise SystemExit(
                f"cannot read benchmark history: {exc}") from None
        try:
            rows = bench_trend(history, window=args.window,
                               rtol=args.rtol)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        violations = check_gates(rows, gates)
        if args.as_json:
            print(json.dumps(
                {"rows": [r.as_dict() for r in rows],
                 "gates": [f"{m}{op}{v:g}" for m, op, v in gates],
                 "violations": violations,
                 "ok": not violations}, indent=2))
        else:
            print(render_bench_trend(rows))
            for violation in violations:
                print(f"GATE VIOLATION: {violation}")
        return 1 if violations else 0

    # trace-summary
    from .obs import render_trace_summary, summarize_trace

    try:
        with open(args.trace) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"cannot read trace: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid trace JSON: {exc}") from None
    try:
        summary = summarize_trace(doc)
    except ValueError as exc:
        raise SystemExit(f"{args.trace}: {exc}") from None
    if args.as_json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_trace_summary(summary, top=args.top))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("table1", "table2", "table3", "figure7", "scaling"):
        _cmd_experiment(args.command)
    elif args.command == "all":
        for name in ("table1", "table2", "table3", "figure7", "scaling"):
            _cmd_experiment(name)
            print()
    elif args.command == "summary":
        _cmd_summary()
    elif args.command == "latency":
        _cmd_latency(args.model, args.list_models, args.as_json)
    elif args.command == "power":
        _cmd_power()
    elif args.command == "serve":
        _cmd_serve(args)
    elif args.command == "generate":
        _cmd_generate(args)
    elif args.command == "partition":
        _cmd_partition(args)
    elif args.command == "dse":
        _cmd_dse(args)
    elif args.command == "obs":
        return _cmd_obs(args)
    else:  # pragma: no cover - argparse enforces choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
