"""Closed-form surrogate scoring: the cheap prescreen objective.

The full evaluator (:func:`repro.dse.objectives.evaluate_point`) runs
up to three discrete-event simulations per point — serving,
continuous-batching generation, and a failure-injected rerun that
carries the watchdog — which is exactly what makes honest
million-point design spaces unaffordable by brute force.  This module
scores a point with the *summation model* sketched in SNIPPETS.md
Snippet 1 instead: add up the analytic latency, bandwidth, and
resource terms, estimate queueing with a closed-form M/M/c wait, and
never simulate.  On the benchmark grid
(``benchmarks/test_dse.py``, 30 points, 2-vCPU Xeon VM) a first
surrogate call on a synthesized variant costs ~5 ms against ~80 ms for
a full evaluation (~16x).  Repeat calls on the same variant hit the
shared per-process memos and cost ~0.1 ms, so a prescreen that
revisits a variant across fleet sizes pays the closed forms once.

The closed forms themselves live in :mod:`repro.analytic`.  The
estimates are deliberately aligned with the full evaluator:

* ``latency_ms`` / ``throughput_inf_s`` / ``power_w`` / ``util_pct``
  come from the one design-point model the full evaluator starts from
  (:func:`~repro.dse.objectives.design_point`), so on those axes the
  surrogate equals the full stack by construction;
* ``p99_ms`` replaces the serving simulation with the M/M/c wait
  quantile of :func:`repro.analytic.queueing.p99_estimate_ms` — the
  exponential tail of the queueing delay, floored at the
  mass-weighted conditional-wait quantile at low load and capped by
  the fluid wait through saturation;
* ``ttft_p99_ms`` / ``tokens_per_s`` are the point's unloaded
  generation pair, :func:`~repro.dse.objectives.unloaded_generation`,
  which the full evaluator itself reports wherever it does not
  simulate (``devices > 1``, or an empty workload): a pipeline group's
  decode split, else the single-device analytic estimate (a lower
  bound on the simulated single-device tail);
* the failure and watchdog objectives have no closed form and are
  simply absent — the prescreen ranks on whatever subset it can score.

Infeasible corners, an unscoreable generation pair among them, raise
exactly like the full evaluator (the same checks in the same order),
so the prescreen can forward them for the authoritative error record
rather than silently dropping them.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from ..analytic.queueing import p99_estimate_ms
from .objectives import design_point, unloaded_generation

__all__ = ["surrogate_point"]


def surrogate_point(point: Mapping[str, Any],
                    settings: Optional[Mapping[str, Any]] = None
                    ) -> Dict[str, float]:
    """Estimate a design point's objectives without simulating.

    Starts from the same :func:`~repro.dse.objectives.design_point` as
    :func:`~repro.dse.objectives.evaluate_point` — checks, synthesis,
    fit, unit latency and power, all memoized per process — and
    replaces every simulation with a closed-form term.  Raises for
    infeasible corners exactly like the full evaluator, so callers can
    forward those points for an authoritative error record.
    """
    dp = design_point(point, settings)
    opts = dp.opts
    estimate = {
        "latency_ms": dp.latency_ms,
        "throughput_inf_s": dp.unit_inf_s * dp.fleet,
        "p99_ms": p99_estimate_ms(dp.latency_ms, dp.unit_inf_s, dp.fleet,
                                  float(opts["qps"]),
                                  float(opts["duration_ms"])),
        "power_w": dp.power_w,
        "util_pct": dp.util_pct,
    }
    if opts["gen_objectives"]:
        estimate.update(unloaded_generation(dp))
    return estimate
