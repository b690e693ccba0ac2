"""The standard ProTEA evaluator: one design point, five objectives.

A point fixes the *programmable-accelerator deployment question* end to
end: synthesis-time tile counts (``tiles_mha`` x ``tiles_ffn``, exactly
Fig. 7's axes), the datapath quantization format, the runtime-programmed
model, the multi-FPGA partitioning degree (``devices``), and the
serving fleet (``fleet`` replicas under a ``scheduler``).  Evaluation
composes the existing stack — ``ProTEA.synthesize`` → ``LatencyModel``
→ :mod:`repro.parallel` (when ``devices > 1``) → :mod:`repro.serving`
(a seeded Poisson workload) → :mod:`repro.fpga.power` — and reports:

* ``latency_ms``   (min) — one inference end to end (pipeline fill
  when partitioned);
* ``throughput_inf_s`` (max) — steady-state fleet capacity;
* ``p99_ms``       (min) — tail latency under the settings' workload;
* ``power_w``      (min) — board power x total FPGA count;
* ``util_pct``     (min) — worst per-device resource utilization.

Infeasible corners (does not fit the device, exceeds the synthesized
maxima, no viable partitioning) raise — the engine records them as
per-point errors, mirroring how a real DSE flow tolerates bad corners.
Everything returned is a flat JSON-serializable mapping, so records
round-trip through the on-disk :class:`~repro.dse.cache.EvalCache`.

Performance: work that depends only on the design variant is paid once
per process — synthesis (``_SYNTH_MEMO``), the latency model (memoized
on each synthesized instance) and the seeded workload
(``_ARRIVALS_MEMO``).  Every simulation runs at ``detail="summary"``,
which is exact here: the evaluator reads only order statistics (kept
as exact multisets) and count/time totals, never a mean.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..analysis.metrics import gops
from ..analysis.traffic import analyze_traffic
from ..core.accelerator import ProTEA
from ..core.engines import DatapathFormats
from ..fpga.power import PowerModel, PowerReport
from ..isa.controller import ResynthesisRequiredError, SynthParams
from ..nn.model_zoo import get_model
from ..parallel import PipelineGroup, PipelinePartitioner, get_link
from ..serving import ModelMix, PoissonArrivals, Request, simulate, summarize
from .pareto import Objective
from .space import Axis, SearchSpace

__all__ = ["OBJECTIVES", "DEFAULT_SETTINGS", "DEFAULT_OBJECTIVE_NAMES",
           "GENERATION_OBJECTIVE_NAMES", "FAILURE_OBJECTIVE_NAMES",
           "WATCH_OBJECTIVE_NAMES",
           "get_objectives", "standard_space", "evaluate_point"]

#: Every objective the standard evaluator can score.
OBJECTIVES: Tuple[Objective, ...] = (
    Objective("latency_ms", "min", "ms"),
    Objective("throughput_inf_s", "max", "inf/s"),
    Objective("p99_ms", "min", "ms"),
    Objective("power_w", "min", "W"),
    Objective("util_pct", "min", "%"),
    # Generation objectives (autoregressive serving): tail time to
    # first token under the settings' generation workload, and the
    # fleet's aggregate output-token rate.
    Objective("ttft_p99_ms", "min", "ms"),
    Objective("tokens_per_s", "max", "tok/s"),
    # Failure objectives (MTBF/MTTR injection on the serving workload):
    # fleet-time fraction up, and the latency tail of requests that
    # arrived degraded or were retried.
    Objective("availability", "max", ""),
    Objective("p99_degraded_ms", "min", "ms"),
    # Watchdog objectives (an SLO watchdog attached to the same
    # failure-injected run): total minutes under open alerts, and the
    # error budget burned (violations / allowed violations) — how
    # *operable* a design is, not just how fast.
    Objective("alert_minutes", "min", "min"),
    Objective("budget_burn", "min", "x"),
)

#: The CLI/engine default frontier dimensions (>= 3 objectives).
DEFAULT_OBJECTIVE_NAMES: Tuple[str, ...] = (
    "latency_ms", "throughput_inf_s", "p99_ms", "power_w")

#: Workload and environment knobs shared by every point of a sweep.
#: These are part of the cache key: changing any of them re-scores.
DEFAULT_SETTINGS: Dict[str, Any] = {
    "qps": 200.0,          # offered Poisson load for the p99 objective
    "duration_ms": 300.0,  # workload horizon
    "seed": 0,             # workload seed
    "link": "aurora",      # interconnect preset for devices > 1
    "scheduler": "least-loaded",
    # Generation-objective workload (ttft_p99_ms / tokens_per_s).
    # "gen_objectives" gates the whole block: the continuous-batching
    # simulation roughly triples the per-point cost, so callers that
    # select no generation objective (the CLI does this automatically)
    # skip it — the record then simply lacks the two keys.
    "gen_objectives": True,
    "gen_qps": 20.0,       # offered generation load per point
    "gen_prompt": 16,      # prompt tokens per request
    "gen_output": 16,      # output tokens per request
    "gen_slots": 4,        # continuous-batching slots per instance
    # Failure-objective workload (availability / p99_degraded_ms).
    # "fail_objectives" gates the failure-injected rerun of the serving
    # simulation; callers that select neither objective skip it.
    "fail_objectives": True,
    "fail_mtbf_ms": 150.0,  # mean instance up-time
    "fail_mttr_ms": 25.0,   # mean repair duration
    # Watchdog-objective knobs (alert_minutes / budget_burn).
    # "watch_objectives" attaches an SLO watchdog to the failure run
    # above (forcing that run even when neither failure objective is
    # selected); callers that select neither watch objective skip it.
    "watch_objectives": True,
    "watch_slo_ms": 5.0,     # latency SLO the watchdog guards
    "watch_target": 0.99,    # attainment target (error budget = 1%)
    "watch_fast_ms": 50.0,   # fast burn-rate window
    "watch_slow_ms": 200.0,  # slow burn-rate window
    "watch_burn_threshold": 2.0,
}

#: Objectives that require the generation workload simulation.
GENERATION_OBJECTIVE_NAMES: Tuple[str, ...] = ("ttft_p99_ms",
                                               "tokens_per_s")

#: Objectives that require the failure-injected serving simulation.
FAILURE_OBJECTIVE_NAMES: Tuple[str, ...] = ("availability",
                                            "p99_degraded_ms")

#: Objectives that require a watchdog on the failure-injected run.
WATCH_OBJECTIVE_NAMES: Tuple[str, ...] = ("alert_minutes", "budget_burn")


def get_objectives(names: Optional[Tuple[str, ...]] = None
                   ) -> Tuple[Objective, ...]:
    """Resolve objective names (default: the standard four)."""
    names = tuple(names or DEFAULT_OBJECTIVE_NAMES)
    by_name = {o.name: o for o in OBJECTIVES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        raise ValueError(
            f"unknown objective(s) {unknown}; available: {sorted(by_name)}")
    return tuple(by_name[n] for n in names)


def standard_space(
    models: Tuple[str, ...] = ("bert-variant", "model2-lhc-trigger"),
    tiles_mha: Tuple[int, ...] = (8, 12, 48),
    tiles_ffn: Tuple[int, ...] = (3, 6),
    formats: Tuple[str, ...] = ("fix8",),
    devices: Tuple[int, ...] = (1,),
    fleets: Tuple[int, ...] = (1,),
    schedulers: Tuple[str, ...] = ("least-loaded",),
) -> SearchSpace:
    """The canonical (SynthParams x model x partitioning x fleet) space."""
    for name in models:
        get_model(name)  # validate zoo keys eagerly, not per worker
    return SearchSpace((
        Axis("model", tuple(models)),
        Axis("tiles_mha", tuple(tiles_mha)),
        Axis("tiles_ffn", tuple(tiles_ffn)),
        Axis("format", tuple(formats)),
        Axis("devices", tuple(devices)),
        Axis("fleet", tuple(fleets)),
        Axis("scheduler", tuple(schedulers)),
    ))


# ---------------------------------------------------------------------------
#: Per-process synthesis memo: workers in a pool each synthesize a
#: (tiles, format) variant at most once, exactly like the cached
#: `default_accelerator` in the experiments.
_SYNTH_MEMO: Dict[Tuple[int, int, str], ProTEA] = {}


def _formats(name: str) -> DatapathFormats:
    if name == "fix8":
        return DatapathFormats.fix8()
    if name == "fix16":
        return DatapathFormats.fix16()
    raise ValueError(f"unknown datapath format {name!r}; "
                     "available: ['fix16', 'fix8']")


def _synthesize(tiles_mha: int, tiles_ffn: int, fmt: str) -> ProTEA:
    key = (tiles_mha, tiles_ffn, fmt)
    accel = _SYNTH_MEMO.get(key)
    if accel is None:
        base = SynthParams()
        ts_mha = max(1, math.ceil(base.max_d_model / tiles_mha))
        ts_ffn = max(1, math.ceil(base.max_d_model / tiles_ffn))
        synth = replace(base, ts_mha=ts_mha, ts_ffn=ts_ffn)
        # Fit is scored, not enforced: an over-budget point must come
        # back as a recorded infeasibility, not a crash mid-synthesis.
        accel = ProTEA.synthesize(synth, formats=_formats(fmt),
                                  enforce_fit=False)
        _SYNTH_MEMO[key] = accel
    return accel


#: Per-process memo of seeded Poisson workloads, keyed by
#: ``(qps, model, seed, duration_ms)``.  Every point of a sweep replays
#: the same one or two workloads per model; the tuples are shared
#: read-only (the requests are frozen and the engines sort a copy).
#: Bounded, oldest entry out first, so a long-lived process cannot grow
#: it without end.
_ARRIVALS_MEMO: Dict[Tuple[float, str, int, float], Tuple[Request, ...]] = {}
_ARRIVALS_MEMO_MAX = 8


def _arrivals(qps: float, model: str, seed: int,
              duration_ms: float) -> Tuple[Request, ...]:
    key = (qps, model, seed, duration_ms)
    requests = _ARRIVALS_MEMO.get(key)
    if requests is None:
        requests = tuple(PoissonArrivals(qps, ModelMix(model), seed=seed)
                         .generate(duration_ms))
        if len(_ARRIVALS_MEMO) >= _ARRIVALS_MEMO_MAX:
            del _ARRIVALS_MEMO[next(iter(_ARRIVALS_MEMO))]
        _ARRIVALS_MEMO[key] = requests
    return requests


def _analytic_power_w(accel: ProTEA, cfg, latency_ms: float,
                      n_fpgas: int):
    """(total power, workload GOPS, per-board report) for one point.

    Shared by the full evaluator and the closed-form surrogate so the
    two can never disagree on the power axis.
    """
    workload_gops = gops(cfg, latency_ms / 1e3)
    try:
        achieved_gbps = analyze_traffic(accel, cfg).achieved_gbps
    except ResynthesisRequiredError:
        achieved_gbps = 0.0  # model only runs partitioned; skip the term
    per_board = PowerReport.evaluate(
        PowerModel(), accel.resources, accel.clock_mhz,
        latency_s=latency_ms / 1e3, gops=workload_gops,
        achieved_gbps=achieved_gbps)
    return per_board.total_w * n_fpgas, workload_gops, per_board


def _generation_lengths(accel: ProTEA,
                        opts: Mapping[str, Any]) -> Tuple[int, int]:
    """Prompt/output lengths clamped to the point's KV-cache capacity."""
    max_sl = accel.synth.max_seq_len
    prompt = min(int(opts["gen_prompt"]), max(1, max_sl // 2))
    output = min(int(opts["gen_output"]), max(1, max_sl - prompt))
    return prompt, output


def _generation_metrics(accel: ProTEA, cfg, devices: int, fleet: int,
                        opts: Mapping[str, Any]) -> Dict[str, float]:
    """The generation objectives for one design point.

    ``devices == 1``: a token-level continuous-batching simulation over
    the point's fleet (queueing-aware TTFT tail).  ``devices > 1``:
    the pipeline-parallel decode mode (no generation queueing model
    spans device groups yet, so the tail equals the unloaded TTFT).
    """
    from ..serving import (LengthSampler, attach_generation_lengths,
                           simulate_generation, summarize_generation)

    prompt, output = _generation_lengths(accel, opts)
    if devices > 1:
        link = get_link(str(opts["link"]))
        try:
            decode = PipelinePartitioner(accel, link).decode_report(
                cfg, devices, prompt, output)
            return {"ttft_p99_ms": decode.ttft_ms,
                    "tokens_per_s": decode.steady_tokens_per_s * fleet}
        except (ValueError, ResynthesisRequiredError):
            # No pure-pipeline decode split (e.g. fewer layers than
            # devices — the main path may still partition tensor-wise).
            # Decode gains nothing from tensor splits in this model, so
            # score the single-device decode path instead of erroring a
            # point whose other objectives are perfectly feasible.  A
            # model that also cannot fit one device is genuinely
            # unscoreable: raise so the engine records an error record
            # (a NaN objective would be undominatable on the frontier).
            if cfg.num_layers > accel.synth.max_layers:
                raise ValueError(
                    f"{cfg.name}: no pipeline-parallel decode split "
                    f"across {devices} device(s) and the model exceeds "
                    "one device — generation objectives unscoreable"
                ) from None
            rep = accel.generation_report(cfg, prompt, output)
            return {"ttft_p99_ms": rep.ttft_ms,
                    "tokens_per_s": rep.tokens_per_s * fleet}

    arrivals = _arrivals(float(opts["gen_qps"]), cfg.name, int(opts["seed"]),
                         float(opts["duration_ms"]))
    if not arrivals:
        # Degenerate workload: fall back to the analytic single-request
        # split so the objectives stay defined (and deterministic).
        rep = accel.generation_report(cfg, prompt, output)
        return {"ttft_p99_ms": rep.ttft_ms,
                "tokens_per_s": rep.tokens_per_s * fleet}
    requests = attach_generation_lengths(
        arrivals, LengthSampler("fixed", prompt),
        LengthSampler("fixed", output), seed=int(opts["seed"]),
        max_total=accel.synth.max_seq_len)
    report = summarize_generation(simulate_generation(
        accel, requests, fleet, slots=int(opts["gen_slots"]),
        scheduler=str(opts["scheduler"]), detail="summary"))
    return {"ttft_p99_ms": report.p99_ttft_ms,
            "tokens_per_s": report.tokens_per_s}


def evaluate_point(point: Mapping[str, Any],
                   settings: Optional[Mapping[str, Any]] = None
                   ) -> Dict[str, Any]:
    """Score one design point (the engine's standard evaluator).

    Raises for infeasible points; the engine turns that into an error
    record.  Module-level and picklable, so it runs under ``--jobs N``.
    """
    cfg = get_model(str(point["model"]))
    tiles_mha = int(point.get("tiles_mha", 12))
    tiles_ffn = int(point.get("tiles_ffn", 6))
    devices = int(point.get("devices", 1))
    fleet = int(point.get("fleet", 1))
    if devices < 1 or fleet < 1:
        raise ValueError("devices and fleet must be >= 1")
    opts = dict(DEFAULT_SETTINGS, **dict(settings or {}))

    accel = _synthesize(tiles_mha, tiles_ffn, str(point.get("format", "fix8")))
    util_pct = max(accel.utilization.percent.values())
    if util_pct > 100.0:
        worst = max(accel.utilization.percent,
                    key=accel.utilization.percent.get)
        raise ValueError(
            f"does not fit {accel.device.name}: {worst} at {util_pct:.0f}%")

    link = get_link(str(opts["link"]))
    if devices > 1:
        plan = PipelinePartitioner(accel, link).best_plan(cfg, devices)
        latency_ms = plan.latency_ms
        unit_inf_s = plan.steady_state_inf_per_s
        target = PipelineGroup(accel, devices, link=link)
    else:
        report = accel.latency_report(cfg)
        latency_ms = report.latency_ms
        unit_inf_s = 1e3 / latency_ms
        target = accel

    scheduler = str(point.get("scheduler", opts["scheduler"]))
    requests = _arrivals(float(opts["qps"]), cfg.name, int(opts["seed"]),
                         float(opts["duration_ms"]))
    if not requests:
        raise ValueError(
            "workload generated zero requests — raise qps or duration_ms")
    serving = summarize(simulate(target, requests, fleet,
                                 scheduler=scheduler, detail="summary"))

    gen_metrics = (_generation_metrics(accel, cfg, devices, fleet, opts)
                   if opts["gen_objectives"] else {})

    fail_metrics: Dict[str, float] = {}
    watch_metrics: Dict[str, float] = {}
    if opts["fail_objectives"] or opts["watch_objectives"]:
        # Re-run the serving workload with MTBF/MTTR injection (the
        # kernel engine's scenario layer); seeded per instance index,
        # so every point sees the same fault history per replica.  The
        # watch objectives attach an SLO watchdog to this same run —
        # observers are read-only, so sharing it costs nothing and the
        # failure metrics are identical either way.
        from ..sim import FailurePlan

        plan = FailurePlan(
            mtbf_ms=float(opts["fail_mtbf_ms"]),
            mttr_ms=float(opts["fail_mttr_ms"]),
            seed=int(opts["seed"]))
        watchdog = None
        if opts["watch_objectives"]:
            from ..obs import Watchdog

            watchdog = Watchdog(
                slo_ms=float(opts["watch_slo_ms"]),
                target=float(opts["watch_target"]),
                fast_window_ms=float(opts["watch_fast_ms"]),
                slow_window_ms=float(opts["watch_slow_ms"]),
                burn_threshold=float(opts["watch_burn_threshold"]))
        degraded = summarize(simulate(target, requests, fleet,
                                      scheduler=scheduler, failures=plan,
                                      observer=watchdog, detail="summary"))
        if opts["fail_objectives"]:
            fail_metrics = {"availability": degraded.availability,
                            "p99_degraded_ms": degraded.p99_degraded_ms}
        if watchdog is not None:
            watch = watchdog.summary()
            watch_metrics = {"alert_minutes": watch["alert_minutes"],
                             "budget_burn": watch["budget_burn"]}

    n_fpgas = devices * fleet
    power_w, workload_gops, per_board = _analytic_power_w(
        accel, cfg, latency_ms, n_fpgas)

    return {
        # objectives
        "latency_ms": latency_ms,
        "throughput_inf_s": unit_inf_s * fleet,
        "p99_ms": serving.p99_ms,
        "power_w": power_w,
        "util_pct": util_pct,
        **gen_metrics,
        **fail_metrics,
        **watch_metrics,
        # supporting metrics
        "clock_mhz": accel.clock_mhz,
        "ts_mha": accel.synth.ts_mha,
        "ts_ffn": accel.synth.ts_ffn,
        "gops": workload_gops,
        "gops_per_w": workload_gops / per_board.total_w,
        "n_fpgas": n_fpgas,
        "measured_rps": serving.throughput_rps,
        "fleet_utilization": serving.utilization,
        "p50_ms": serving.p50_ms,
    }
