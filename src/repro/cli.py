"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artifacts (``table1``, ``table2``,
``table3``, ``figure7``, ``scaling``, ``all``), describe the published
instance (``summary``, ``power``, ``latency <model>``), simulate
serving (``serve``, with ``--plan`` capacity search) and
autoregressive generation (``generate``), split a model across FPGAs
(``partition``), explore the design space (``dse``) and analyse
exported artifacts (``obs diff`` / ``obs bench`` / ``obs
trace-summary``).  ``docs/cli.md`` is the flag reference.

``serve`` and ``generate`` share their common flags and one
run-and-report path: observers (``--trace``, ``--metrics``,
``--watch``, ``--profile``), ``--shards``, the run, summarize, exports
and the ``--json`` or text report.

Exit status: 0 on success; 1 only when ``obs diff`` finds a regression
or an ``obs bench`` gate is violated; 2 for bad input.  Every
rejection of user input — a flag check here, a library constructor's
``ValueError``, an unreadable input file, an argparse error — leaves
through :func:`_usage_error` as one ``repro <cmd>: error: ...`` line
on stderr (``repro obs <sub>: error: ...`` for the ``obs`` family).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, NoReturn, Optional

__all__ = ["main", "build_parser"]

_POLICIES = ("round-robin", "least-loaded", "model-affinity")
_LINKS = ("aurora", "eth100g", "eth10g", "pcie4x8")
_EXPERIMENTS = ("table1", "table2", "table3", "figure7", "scaling")


def _usage_error(prog: str, message: str) -> NoReturn:
    """Exit like an argparse usage error: one line on stderr, status 2."""
    print(f"{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


class _Parser(argparse.ArgumentParser):
    """Argparse whose own errors take the same one-line exit-2 path."""

    def error(self, message: str) -> NoReturn:
        _usage_error(self.prog, message)


def _add_run_flags(p: argparse.ArgumentParser, *, scenarios, qps: float,
                   qps_help: str, instances: int, fleet_help: str,
                   watch_help: str) -> None:
    """The flags ``serve`` and ``generate`` share (help that differs is
    passed in)."""
    p.add_argument("--scenario", default="poisson", choices=scenarios)
    p.add_argument("--qps", type=float, default=qps, help=qps_help)
    p.add_argument("--instances", type=int, default=instances)
    p.add_argument("--policy", default="least-loaded", choices=_POLICIES)
    p.add_argument("--model", action="append", dest="models",
                   metavar="NAME[:WEIGHT]",
                   help="model-zoo entry in the request mix (repeatable; "
                        "default model2-lhc-trigger)")
    p.add_argument("--duration-ms", type=float, default=1000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reprogram-ms", type=float, default=0.0,
                   help="workload-switch penalty per instance")
    p.add_argument("--heterogeneous", default=None, metavar="SPEC",
                   help=fleet_help)
    p.add_argument("--failures", default=None, metavar="MTBF:MTTR",
                   help="inject instance faults: mean up-time and "
                        "mean repair time in ms (e.g. 200:20)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write a Chrome-trace-event JSON of the run "
                        "(open in chrome://tracing or Perfetto)")
    p.add_argument("--metrics", default=None, metavar="PATH",
                   help="write grid-sampled metrics (JSON, or CSV for "
                        "*.csv paths)")
    p.add_argument("--metrics-grid-ms", type=float, default=10.0,
                   help="simulated-time sampling grid for --metrics")
    p.add_argument("--watch", action="store_true", help=watch_help)
    p.add_argument("--watch-window-ms", type=float, default=100.0,
                   help="fast burn-rate window for --watch")
    p.add_argument("--watch-slow-window-ms", type=float, default=500.0,
                   help="slow burn-rate window for --watch")
    p.add_argument("--watch-target", type=float, default=0.99,
                   help="SLO attainment target for the --watch error "
                        "budget (fraction in (0, 1))")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="partition the fleet into N independent cells "
                        "and merge their summary reports (1 = the "
                        "ordinary single-loop run)")
    p.add_argument("--shard-jobs", type=int, default=None, metavar="J",
                   help="run shard cells in J worker processes "
                        "(>= 2; default: serially in-process)")
    p.add_argument("--profile", action="store_true",
                   help="report kernel wall time per event kind")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="ProTEA reproduction — regenerate the paper's "
                    "tables/figures and query the models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _EXPERIMENTS + ("all", "summary", "power"):
        sub.add_parser(name)
    lat = sub.add_parser("latency")
    lat.add_argument("model", nargs="?", default=None,
                     help="model-zoo key (omit with --list)")
    lat.add_argument("--list", action="store_true", dest="list_models")

    srv = sub.add_parser(
        "serve", help="simulate a multi-instance serving cluster")
    _add_run_flags(
        srv, scenarios=("poisson", "bursty", "diurnal", "trace"),
        qps=100.0, qps_help="offered load (peak qps for --scenario diurnal)",
        instances=4,
        fleet_help="per-instance fleet spec "
                   "SPEED[xCOUNT][@MODEL[+MODEL..]],... (overrides "
                   "--instances; e.g. '1.0x2,0.5@model2-lhc-trigger')",
        watch_help="attach an SLO watchdog (burn-rate alerting + anomaly "
                   "detection; requires --slo-ms)")
    srv.add_argument("--batch", default="none",
                     choices=("none", "fixed", "timeout"))
    srv.add_argument("--batch-size", type=int, default=8)
    srv.add_argument("--batch-timeout-ms", type=float, default=2.0)
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

    gen = sub.add_parser(
        "generate",
        help="autoregressive generation serving (continuous batching)")
    _add_run_flags(
        gen, scenarios=("poisson", "bursty", "diurnal"),
        qps=20.0, qps_help="offered request load (peak for diurnal)",
        instances=2,
        fleet_help="per-instance fleet spec "
                   "SPEED[/SLOTS][xCOUNT][@MODEL[+MODEL..]],... "
                   "(overrides --instances)",
        watch_help="attach an SLO watchdog on TTFT (burn-rate alerting + "
                   "anomaly detection; requires --ttft-slo-ms)")
    gen.add_argument("--slots", type=int, default=8,
                     help="in-flight sequence slots per instance")
    gen.add_argument("--prompt-tokens", default="16", metavar="SPEC",
                     help="prompt length: N, LO:HI, or geo:LO:MEAN")
    gen.add_argument("--output-tokens", default="32", metavar="SPEC",
                     help="output length: N, LO:HI, or geo:LO:MEAN")
    gen.add_argument("--priority", type=float, default=None,
                     metavar="FRAC",
                     help="mark this fraction of requests high-priority "
                          "(admitted first, may preempt at step "
                          "boundaries)")
    gen.add_argument("--ttft-slo-ms", type=float, default=None,
                     help="time-to-first-token SLO for goodput")
    gen.add_argument("--tpot-slo-ms", type=float, default=None,
                     help="time-per-output-token SLO for goodput")

    par = sub.add_parser(
        "partition", help="partition one model across K FPGAs")
    par.add_argument("model", help="model-zoo key")
    par.add_argument("-k", "--devices", type=int, default=2,
                     help="total device count (default 2)")
    par.add_argument("--tp", default="auto",
                     help="tensor-parallel ways per stage (int, or 'auto' "
                          "to search the best depth x width factorization)")
    par.add_argument("--link", default="aurora", choices=_LINKS,
                     help="inter-device interconnect preset")
    par.add_argument("--gantt", type=int, default=0, metavar="ITEMS",
                     help="also draw the pipeline timeline for N items")

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
    dse.add_argument("--link", default="aurora", choices=_LINKS,
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
    ot = obs_sub.add_parser(
        "trace-summary",
        help="aggregate a Chrome-trace export (top spans, alerts)")
    ot.add_argument("trace", help="trace JSON written by --trace")
    ot.add_argument("--top", type=int, default=10,
                    help="span rows to show (default 10)")
    for p in (lat, srv, gen, par, dse, od, ob, ot):
        p.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable output")
    return parser


def _cmd_experiment(args) -> None:
    """One paper artifact, or every one of them for ``all``."""
    from . import experiments

    for name in _EXPERIMENTS if args.command == "all" else [args.command]:
        module = getattr(experiments, name)
        print(module.render())
        if name == "figure7":
            print()
            print(module.ascii_plot())
        if args.command == "all":
            print()


def _cmd_summary(args) -> None:
    from .experiments.common import default_accelerator
    from .nn import BERT_VARIANT

    accel = default_accelerator()
    print(accel.summary())
    rep = accel.latency_report(BERT_VARIANT)
    print(f"BERT variant: {rep.latency_ms:.1f} ms, "
          f"{accel.throughput_gops(BERT_VARIANT):.1f} GOPS "
          f"(paper: 279 ms, 53 GOPS)")


def _check_models(names, prefix: str = "") -> None:
    """Reject names the model zoo lacks — as bad input, before
    ``get_model`` raises a ``KeyError`` (which would be a traceback)."""
    from .nn import MODEL_ZOO

    unknown = sorted(set(names) - set(MODEL_ZOO))
    if unknown:
        raise ValueError(f"{prefix}unknown models {unknown}; "
                         f"available: {sorted(MODEL_ZOO)}")


def _cmd_latency(args) -> None:
    from .analysis.metrics import gops
    from .experiments.common import default_accelerator
    from .nn import MODEL_ZOO, get_model

    if args.list_models or args.model is None:
        if args.as_json:
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
    _check_models([args.model])
    cfg = get_model(args.model)
    accel = default_accelerator()
    rep = accel.latency_report(cfg)
    if args.as_json:
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


def _cmd_power(args) -> None:
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


def _read_input(path: str, what: str, loader=None):
    """Load one input file (plain JSON unless a ``loader`` is given):
    an unreadable or malformed one is bad input."""
    try:
        if loader is not None:
            return loader(path)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSONDecodeError
        raise ValueError(f"cannot read {what}: {exc}") from None


def _positive(value: float) -> bool:
    return 0 < value < math.inf


#: The numeric knobs checked before any workload is built:
#: ``(flag, accepts(value), requirement)``; a command without the flag
#: skips the row.  An infinite ``--qps`` never finishes generating
#: arrivals and a NaN one generates none; a NaN SLO is met by nothing
#: yet reads as attained; observer knobs are checked even while
#: ``--metrics``/``--watch`` is off, so they cannot ride along unused.
_KNOB_CHECKS = (
    *((flag, _positive, "must be finite and > 0")
      for flag in ("--qps", "--duration-ms", "--slo-ms", "--ttft-slo-ms",
                   "--tpot-slo-ms")),
    ("--batch-timeout-ms", lambda v: 0 <= v < math.inf,
     "must be finite and >= 0"),
    ("--metrics-grid-ms", _positive, "grid_ms must be positive and finite"),
    ("--watch-window-ms", _positive,
     "window widths must be positive and finite"),
    ("--watch-slow-window-ms", _positive,
     "window widths must be positive and finite"),
    ("--watch-target", lambda v: 0 < v < 1,
     "expected an attainment fraction in (0, 1)"),
)


def _check_knobs(args) -> None:
    """Apply :data:`_KNOB_CHECKS` to the command's flags."""
    for flag, accepts, requirement in _KNOB_CHECKS:
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None and not accepts(value):
            raise ValueError(f"invalid {flag} {value:g}: {requirement}")


def _parse_mix(entries: Optional[List[str]]):
    """``name[:weight]`` CLI entries → ModelMix (validates names)."""
    from .serving import ModelMix

    weights = {}
    for entry in entries or ["model2-lhc-trigger"]:
        name, _, w = entry.partition(":")
        try:
            weight = float(w) if w else 1.0
        except ValueError:
            raise ValueError(
                f"invalid weight {w!r} in --model {entry!r} "
                "(expected NAME or NAME:FLOAT)") from None
        weights[name] = weights.get(name, 0.0) + weight
    _check_models(weights)
    return ModelMix(weights)


def _workload(args):
    """Validate the load knobs, then build (accelerator, arrivals)."""
    from .experiments.common import default_accelerator
    from .serving import (BurstyArrivals, DiurnalArrivals, PoissonArrivals,
                          TraceReplay)

    _check_knobs(args)
    mix = _parse_mix(args.models)
    if args.scenario == "poisson":
        gen = PoissonArrivals(args.qps, mix, seed=args.seed)
    elif args.scenario == "bursty":
        gen = BurstyArrivals(args.qps, mix, seed=args.seed)
    elif args.scenario == "diurnal":
        gen = DiurnalArrivals(args.qps, mix, seed=args.seed,
                              period_ms=args.duration_ms)
    else:  # trace
        if not args.trace_file:
            raise ValueError("--scenario trace requires --trace-file")
        events = [(float(t), str(m)) for t, m in
                  _read_input(args.trace_file, "--trace-file")]
        _check_models({m for _, m in events}, "trace names ")
        gen = TraceReplay(events)
    requests = gen.generate(args.duration_ms)
    return default_accelerator(), requests


def _parse_fleet(args, requests, generation: bool):
    """``--heterogeneous`` / ``--failures`` → (FleetSpec, FailurePlan),
    rejecting unknown pinned models, unservable capability sets and
    serve-mode ``/SLOTS`` entries before the simulation starts."""
    from .nn import MODEL_ZOO
    from .sim import FailurePlan, FleetSpec

    fleet = failures = None
    if args.heterogeneous:
        fleet = FleetSpec.parse(args.heterogeneous)
        _check_models({m for s in fleet.specs for m in (s.models or ())},
                      "--heterogeneous pins ")
        if not generation and any(s.slots is not None for s in fleet.specs):
            raise ValueError(
                "--heterogeneous /SLOTS entries are a generate-mode "
                "knob; the request-level serve simulation has no "
                "sequence slots")
        unservable = sorted(
            {r.model for r in requests}
            - {m for s in fleet.specs for m in (s.models or MODEL_ZOO)})
        if unservable:
            raise ValueError(
                f"--heterogeneous leaves the workload's models "
                f"{unservable} unservable: no instance's capability "
                "set covers them")
    if args.failures:
        failures = FailurePlan.parse(args.failures, seed=args.seed)
    return fleet, failures


def _run_config(args, fleet) -> dict:
    """The knobs that reproduce this run (embedded in --json output,
    trace metadata, and metrics exports so they stay correlatable)."""
    from . import __version__

    rc = {"command": args.command, "repro_version": __version__,
          "scenario": args.scenario, "qps": args.qps,
          "duration_ms": args.duration_ms, "seed": args.seed,
          "policy": args.policy,
          "models": list(args.models) if args.models else None,
          "reprogram_ms": args.reprogram_ms, "failures": args.failures}
    if fleet is not None:
        rc["fleet"] = fleet.describe()
    else:
        rc["instances"] = args.instances
    if args.command == "serve":
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
    """Validate ``--shards``/``--shard-jobs`` into simulate() kwargs:
    none for ``--shards 1`` (the ordinary single-loop run), the
    summary-detail sharded path for anything larger."""
    if args.shards < 1:
        raise ValueError("--shards must be >= 1")
    if args.shards == 1:
        if args.shard_jobs is not None:
            raise ValueError("--shard-jobs needs --shards > 1")
        return {}
    if args.profile:
        raise ValueError(
            "--profile times one event loop and cannot span --shards "
            "cells; profile a --shards 1 run")
    if observing and args.shard_jobs is not None and args.shard_jobs >= 2:
        raise ValueError(
            "--trace/--metrics/--watch observers cannot cross "
            "--shard-jobs processes; drop --shard-jobs to run the "
            "cells serially in-process")
    return {"detail": "summary", "shards": args.shards,
            "shard_jobs": args.shard_jobs}


def _run_and_report(args, fleet, simulate, summarize, render,
                    json_head: Optional[dict] = None,
                    json_tail: Optional[dict] = None) -> None:
    """The run path ``serve`` and ``generate`` share: observers, shard
    kwargs, ``simulate(observer=, profiler=, **shard_kwargs)``,
    ``summarize(result, watch=)``, exports, then the ``--json`` envelope
    (``json_head`` keys after ``seed``, ``json_tail`` keys after
    ``fleet``) or ``render(report)`` plus the ``--profile`` table."""
    from .obs import (KernelProfiler, MetricsSampler, TraceRecorder,
                      Watchdog, compose)

    if args.watch_slow_window_ms < args.watch_window_ms:
        raise ValueError(
            f"--watch-slow-window-ms ({args.watch_slow_window_ms:g}) "
            f"must be >= --watch-window-ms ({args.watch_window_ms:g})")
    tracer = TraceRecorder() if args.trace else None
    sampler = (MetricsSampler(grid_ms=args.metrics_grid_ms)
               if args.metrics else None)
    watchdog = None
    if args.watch:
        slo_flag, slo_ms = (("--slo-ms", args.slo_ms)
                            if args.command == "serve"
                            else ("--ttft-slo-ms", args.ttft_slo_ms))
        if slo_ms is None:
            raise ValueError(f"--watch requires {slo_flag} "
                             "(the SLO the watchdog guards)")
        watchdog = Watchdog(slo_ms=slo_ms, target=args.watch_target,
                            fast_window_ms=args.watch_window_ms,
                            slow_window_ms=args.watch_slow_window_ms)
    profiler = KernelProfiler() if args.profile else None
    observer = compose(tracer, sampler, watchdog)
    shard_kwargs = _shard_kwargs(args, observing=observer is not None)
    run_cfg = _run_config(args, fleet)
    result = simulate(observer=observer, profiler=profiler, **shard_kwargs)
    report = summarize(
        result, watch=watchdog.summary() if watchdog is not None else None)
    if watchdog is not None and tracer is not None:
        watchdog.annotate(tracer)
    try:
        if tracer is not None:
            tracer.dump(args.trace, run_cfg)
        if sampler is not None:
            sampler.registry.dump(args.metrics, run_cfg)
    except OSError as exc:
        raise ValueError(
            f"cannot write observability output: {exc}") from None
    if args.as_json:
        out = {"scenario": args.scenario, "qps": args.qps,
               "duration_ms": args.duration_ms, "seed": args.seed,
               **(json_head or {}),
               "reprogram_ms": args.reprogram_ms,
               "run_config": run_cfg}
        if fleet is not None:
            out["fleet"] = fleet.describe()
        out.update(json_tail or {})
        out.update(report.as_dict())
        if profiler is not None:
            out["profile"] = profiler.as_dict()
        print(json.dumps(out, indent=2))
    else:
        print(render(report))
        if profiler is not None:
            from .obs import render_kernel_profile

            print()
            print(render_kernel_profile(profiler))


def _cmd_serve(args) -> None:
    from .serving import (get_batching, plan_capacity, render_capacity_plan,
                          render_serving_report, simulate, summarize)

    accel, requests = _workload(args)
    batching = get_batching(args.batch, args.batch_size,
                            args.batch_timeout_ms)
    fleet, failures = _parse_fleet(args, requests, generation=False)

    if args.plan:
        if fleet is not None:
            raise ValueError(
                "--plan searches fleet *size* and cannot honor a fixed "
                "--heterogeneous spec")
        if args.slo_ms is None:
            raise ValueError("--plan requires --slo-ms")
        if args.trace or args.metrics or args.profile or args.watch:
            raise ValueError(
                "--trace/--metrics/--profile/--watch instrument a "
                "single run and cannot observe a --plan search "
                "(many runs)")
        if args.analytic_only and args.confirm == "probe":
            raise ValueError(
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
        plan = plan_capacity(
            accel, requests, target_p99_ms=args.slo_ms,
            target_qps=realized_qps,
            scheduler=args.policy, batching=batching,
            reprogram_latency_ms=args.reprogram_ms,
            failures=failures,
            mode=args.confirm, confirm=not args.analytic_only,
            shards=shard_kwargs.get("shards", 1),
            shard_jobs=shard_kwargs.get("shard_jobs"))
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
        raise ValueError(
            "--analytic-only/--confirm steer a --plan search; add --plan")
    _run_and_report(
        args, fleet,
        simulate=functools.partial(
            simulate, accel, requests, None if fleet else args.instances,
            scheduler=args.policy, batching=batching,
            reprogram_latency_ms=args.reprogram_ms,
            fleet=fleet, failures=failures),
        summarize=functools.partial(summarize, slo_ms=args.slo_ms),
        render=functools.partial(
            render_serving_report,
            title=(f"Serving: {args.scenario} @ {args.qps:g} qps, "
                   f"{fleet.n if fleet else args.instances} instance(s), "
                   f"{args.policy}")))


def _cmd_generate(args) -> None:
    from .serving import (LengthSampler, attach_generation_lengths,
                          attach_priorities, render_generation_report,
                          simulate_generation, summarize_generation)

    accel, arrivals = _workload(args)
    prompt = LengthSampler.parse(args.prompt_tokens)
    output = LengthSampler.parse(args.output_tokens)
    fleet, failures = _parse_fleet(args, arrivals, generation=True)
    requests = attach_generation_lengths(
        arrivals, prompt, output, seed=args.seed,
        max_total=accel.synth.max_seq_len)
    if args.priority is not None:
        requests = attach_priorities(requests, args.priority, seed=args.seed)
    _run_and_report(
        args, fleet,
        simulate=functools.partial(
            simulate_generation, accel, requests,
            None if fleet else args.instances,
            slots=args.slots, scheduler=args.policy,
            reprogram_latency_ms=args.reprogram_ms,
            fleet=fleet, failures=failures),
        summarize=functools.partial(
            summarize_generation, ttft_slo_ms=args.ttft_slo_ms,
            tpot_slo_ms=args.tpot_slo_ms),
        render=functools.partial(
            render_generation_report,
            title=(f"Generation: {args.scenario} @ {args.qps:g} qps, "
                   f"{fleet.n if fleet else args.instances} instance(s) "
                   f"x {args.slots} slot(s), {args.policy}")),
        json_head={"prompt_tokens": args.prompt_tokens,
                   "output_tokens": args.output_tokens},
        json_tail=({"priority_fraction": args.priority}
                   if args.priority is not None else None))


def _cmd_partition(args) -> None:
    from .analysis.tables import render_table
    from .experiments.common import default_accelerator
    from .nn import get_model
    from .parallel import PipelinePartitioner, get_link

    _check_models([args.model])
    if args.gantt < 0:
        raise ValueError(f"--gantt must be >= 0 (0 = off), got {args.gantt}")
    cfg = get_model(args.model)
    accel = default_accelerator()
    partitioner = PipelinePartitioner(accel, get_link(args.link))
    if args.tp == "auto":
        plan = partitioner.best_plan(cfg, args.devices)
    else:
        try:
            tp = int(args.tp)
        except ValueError:
            raise ValueError(
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
        raise ValueError(
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
        raise ValueError(f"invalid --jobs {args.jobs} (expected >= 1)")
    if args.batch is not None and args.batch < 1:
        raise ValueError(f"invalid --batch {args.batch} (expected >= 1)")
    if args.prescreen_keep is not None and not args.prescreen:
        raise ValueError("--prescreen-keep requires --prescreen")
    _check_knobs(args)
    axes = dict(
        models=tuple(args.models or ("bert-variant", "model2-lhc-trigger")),
        tiles_mha=_csv_ints(args.tiles_mha, "--tiles-mha"),
        tiles_ffn=_csv_ints(args.tiles_ffn, "--tiles-ffn"),
        formats=_csv_strs(args.formats),
        devices=_csv_ints(args.devices, "--devices"),
        fleets=_csv_ints(args.fleet, "--fleet"),
        schedulers=_csv_strs(args.schedulers),
    )
    try:  # unknown names surface as KeyError from the registries
        space = standard_space(**axes)
        objectives = get_objectives(_csv_strs(args.objectives))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"invalid search space: {exc}") from None

    cache = None
    if args.resume or args.cache_dir:
        cache = EvalCache(args.cache_dir or ".dse_cache")
    # The generation and failure-injection simulations each add real
    # per-point cost: only pay for the ones whose objectives are asked.
    selected = {o.name for o in objectives}
    settings = {"qps": args.qps, "duration_ms": args.duration_ms,
                "seed": args.seed, "link": args.link}
    for key, names in (("gen_objectives", GENERATION_OBJECTIVE_NAMES),
                       ("fail_objectives", FAILURE_OBJECTIVE_NAMES),
                       ("watch_objectives", WATCH_OBJECTIVE_NAMES)):
        settings[key] = not selected.isdisjoint(names)
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

        run_a = _read_input(args.run_a, "run export", load_run)
        run_b = _read_input(args.run_b, "run export", load_run)
        report = diff_runs(run_a, run_b, rtol=args.rtol, atol=args.atol)
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

        gates = [parse_gate(g) for g in (args.gates or [])]
        history = _read_input(args.results, "benchmark history",
                              load_history)
        rows = bench_trend(history, window=args.window, rtol=args.rtol)
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

    summary = summarize_trace(_read_input(args.trace, "trace"))
    if args.as_json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_trace_summary(summary, top=args.top))
    return 0


_COMMANDS = {"all": _cmd_experiment, "summary": _cmd_summary,
             "latency": _cmd_latency, "power": _cmd_power,
             "serve": _cmd_serve, "generate": _cmd_generate,
             "partition": _cmd_partition, "dse": _cmd_dse, "obs": _cmd_obs,
             **dict.fromkeys(_EXPERIMENTS, _cmd_experiment)}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args) or 0
    except ValueError as exc:  # named like the parser that read the flag
        sub = getattr(args, "obs_command", None)
        _usage_error(f"repro {args.command}" + (f" {sub}" if sub else ""),
                     str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
