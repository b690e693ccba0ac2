"""Closed-form performance models: the analytic layer under the sim.

``repro.analytic`` estimates what the discrete-event simulators
measure — latency quantiles, TTFT/TPOT, throughput, utilization, fleet
sizing — from summation-model arithmetic instead of event replay
(SNIPPETS.md Snippet 1 is the idiom: add up the latency, bandwidth,
and queueing terms).  The estimates are cross-validated against the
sim kernel on the golden scenarios: every statistic of a serving
estimate ships with a lo/hi bracket the simulated answer must fall
inside.

Modules:

* :mod:`~repro.analytic.queueing` — M/M/c Erlang-C wait tails and
  the DSE surrogate's point-mode p99 estimate;
* :mod:`~repro.analytic.envelope` — fluid approximations of concrete
  bursty/diurnal arrival envelopes;
* :mod:`~repro.analytic.serving` — mixed-model serving estimates with
  reprogram-penalty costing;
* :mod:`~repro.analytic.generation` — TTFT/TPOT/token-throughput
  estimates;
* :mod:`~repro.analytic.capacity` — closed-form fleet sizing, the
  analytic-first half of :func:`repro.serving.slo.plan_capacity`.
"""

from .capacity import FleetProposal, propose_fleet
from .envelope import ArrivalEnvelope, fluid_waits_ms
from .generation import AnalyticGenerationEstimate, estimate_generation
from .queueing import erlang_c, p99_estimate_ms, wait_quantile_ms
from .serving import AnalyticServingEstimate, estimate_serving

__all__ = [
    "erlang_c",
    "wait_quantile_ms",
    "p99_estimate_ms",
    "ArrivalEnvelope",
    "fluid_waits_ms",
    "AnalyticServingEstimate",
    "estimate_serving",
    "AnalyticGenerationEstimate",
    "estimate_generation",
    "FleetProposal",
    "propose_fleet",
]
