"""Closed-form surrogate scoring: the cheap prescreen objective.

The full evaluator (:func:`repro.dse.objectives.evaluate_point`) runs
up to four discrete-event simulations per point — serving, continuous-
batching generation, failure injection, and a watchdog rerun — which
is exactly what makes honest million-point design spaces unaffordable
by brute force.  This module scores a point with the *summation model*
sketched in SNIPPETS.md Snippet 1 instead: add up the analytic
latency, bandwidth, and resource terms, estimate queueing with a
closed-form M/M/c wait, and never simulate.  On the benchmark grid
(``benchmarks/test_dse.py``, 30 points, 2-vCPU Xeon VM) a first
surrogate call on a synthesized variant costs ~5 ms against ~80 ms for
a full evaluation (~16x).  Repeat calls on the same variant hit the
latency model's memo and cost ~0.1 ms, so a prescreen that revisits a
variant across fleet sizes pays the closed forms once.

The closed forms themselves live in :mod:`repro.analytic`.  The
estimates are deliberately aligned with the full evaluator:

* ``latency_ms`` / ``throughput_inf_s`` / ``power_w`` / ``util_pct``
  reuse the very same analytic models the full evaluator starts from,
  so on those axes the surrogate ranks points *exactly* as the full
  stack does;
* ``p99_ms`` replaces the serving simulation with the M/M/c wait
  quantile of :func:`repro.analytic.queueing.p99_estimate_ms` — the
  exponential tail of the queueing delay, floored at the
  mass-weighted conditional-wait quantile at low load and capped by
  the fluid wait through saturation;
* ``ttft_p99_ms`` / ``tokens_per_s`` fall back to the unloaded
  analytic generation estimate (a lower bound on the simulated tail);
* the failure and watchdog objectives have no closed form and are
  simply absent — the prescreen ranks on whatever subset it can score.

Infeasible corners raise exactly like the full evaluator (same fit
check), so the prescreen can forward them for the authoritative error
record rather than silently dropping them.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from ..analytic.generation import estimate_generation
from ..analytic.queueing import p99_estimate_ms as _p99_estimate_ms
from ..isa.controller import ResynthesisRequiredError
from ..nn.model_zoo import get_model
from ..parallel import PipelinePartitioner, get_link

__all__ = ["SURROGATE_OBJECTIVE_NAMES", "surrogate_point"]

#: Objectives the closed-form model can estimate.  The failure pair
#: (availability / p99_degraded_ms) and the watchdog pair
#: (alert_minutes / budget_burn) are simulation-defined and absent.
SURROGATE_OBJECTIVE_NAMES: Tuple[str, ...] = (
    "latency_ms", "throughput_inf_s", "p99_ms", "power_w", "util_pct",
    "ttft_p99_ms", "tokens_per_s")

#: Per-process memo of pipeline plans: the exact-DP partitioning is
#: the one genuinely expensive analytic step, and every point sharing
#: (synth variant, model, devices, link) shares its plan.
_PLAN_MEMO: Dict[Tuple[int, int, str, str, int, str],
                 Tuple[float, float]] = {}


def _unit_latency(accel, cfg, devices: int, link_name: str,
                  point_key: Tuple[int, int, str]) -> Tuple[float, float]:
    """(latency_ms, steady inf/s) for one device group, memoized."""
    if devices <= 1:
        report = accel.latency_report(cfg)
        return report.latency_ms, 1e3 / report.latency_ms
    memo_key = (*point_key, cfg.name, devices, link_name)
    cached = _PLAN_MEMO.get(memo_key)
    if cached is None:
        plan = PipelinePartitioner(accel, get_link(link_name)).best_plan(
            cfg, devices)
        cached = (plan.latency_ms, plan.steady_state_inf_per_s)
        _PLAN_MEMO[memo_key] = cached
    return cached


def surrogate_point(point: Mapping[str, Any],
                    settings: Optional[Mapping[str, Any]] = None
                    ) -> Dict[str, float]:
    """Estimate a design point's objectives without simulating.

    Mirrors :func:`~repro.dse.objectives.evaluate_point` step for step
    — synthesis (shared per-process memo), fit check, latency or
    pipeline plan, power — but replaces every simulation with a
    closed-form term.  Raises for infeasible corners exactly like the
    full evaluator, so callers can forward those points for an
    authoritative error record.
    """
    from .objectives import (DEFAULT_SETTINGS, _analytic_power_w,
                             _generation_lengths, _synthesize)

    cfg = get_model(str(point["model"]))
    tiles_mha = int(point.get("tiles_mha", 12))
    tiles_ffn = int(point.get("tiles_ffn", 6))
    devices = int(point.get("devices", 1))
    fleet = int(point.get("fleet", 1))
    if devices < 1 or fleet < 1:
        raise ValueError("devices and fleet must be >= 1")
    opts = dict(DEFAULT_SETTINGS, **dict(settings or {}))

    fmt = str(point.get("format", "fix8"))
    accel = _synthesize(tiles_mha, tiles_ffn, fmt)
    util_pct = max(accel.utilization.percent.values())
    if util_pct > 100.0:
        worst = max(accel.utilization.percent,
                    key=accel.utilization.percent.get)
        raise ValueError(
            f"does not fit {accel.device.name}: {worst} at {util_pct:.0f}%")

    latency_ms, unit_inf_s = _unit_latency(
        accel, cfg, devices, str(opts["link"]),
        (tiles_mha, tiles_ffn, fmt))
    power_w, _, _ = _analytic_power_w(accel, cfg, latency_ms,
                                      devices * fleet)
    estimate = {
        "latency_ms": latency_ms,
        "throughput_inf_s": unit_inf_s * fleet,
        "p99_ms": _p99_estimate_ms(latency_ms, unit_inf_s, fleet,
                                   float(opts["qps"]),
                                   float(opts["duration_ms"])),
        "power_w": power_w,
        "util_pct": util_pct,
    }
    if opts["gen_objectives"]:
        try:
            prompt, output = _generation_lengths(accel, opts)
            gen = estimate_generation(accel, cfg, prompt, output,
                                      fleet=fleet)
            estimate["ttft_p99_ms"] = gen.ttft_p99_ms
            estimate["tokens_per_s"] = gen.tokens_per_s
        except (ValueError, ResynthesisRequiredError):
            # No analytic generation split for this point: leave the
            # pair absent and let the prescreen rank on the rest.
            pass
    return estimate
