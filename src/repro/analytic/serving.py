"""Closed-form serving estimates: latency tails, throughput, utilization.

:func:`estimate_serving` answers the same questions as one discrete-
event serving simulation — p50/p95/p99 latency, throughput,
utilization — from a single O(n) pass over the arrival times plus a
handful of Erlang evaluations, in the summation-model style of
SNIPPETS.md Snippet 1: add up the analytic service, switching, and
queueing terms instead of replaying the event loop.

Every estimate comes in three flavors:

* a **point** estimate (the planner's proposal signal), and
* a **lo/hi bracket** that the simulated answer must fall inside —
  cross-validated against the sim kernel on the golden scenarios by
  ``tests/analytic``.

The latency model is a linear combination of the mixed-model workload:

* per-model batched service times from the same
  :class:`~repro.serving.batching.ServiceTimeModel` the simulator
  dispatches with (the analytic and simulated service grids are the
  *same numbers*, memoized per invocation seq_len);
* reprogram-penalty costing: consecutive dispatches switch models with
  probability ``1 - sum(share^2)`` (the collision probability of the
  workload mix), each switch charging ``reprogram_latency_ms`` — zero
  switches in the lower bracket, a switch on every dispatch in the
  upper;
* waiting as the max of two regimes — the stochastic M/M/c wait tail
  (:mod:`repro.analytic.queueing`) and the deterministic fluid backlog
  of the concrete arrival envelope (:mod:`repro.analytic.envelope`) —
  each of which dominates where the other is blind (smooth-load
  clumping vs. bursty/diurnal peaks).

Failure plans derate capacity by steady-state availability
``mtbf / (mtbf + mttr)`` and pad the upper bracket with one repair
window (a degraded request can sit through a repair).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from .._checks import check_count
from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..serving.batching import BatchingPolicy, ServiceTimeModel, no_batching
from ..serving.slo import nearest_rank
from ..serving.workload import Request
from .envelope import ArrivalEnvelope, fluid_waits_ms
from .queueing import wait_quantile_ms

__all__ = ["AnalyticServingEstimate", "estimate_serving"]

#: The latency quantiles every estimate carries (matches ServingReport).
_QUANTILES = (50.0, 95.0, 99.0)

#: Fluid walks over more arrivals than this are stride-coarsened: the
#: sampled arrival carries its whole stride cohort's work, preserving
#: the backlog envelope at ~this resolution.  An estimate must stay
#: O(cheap) even on the million-request workloads it fronts for.
_MAX_FLUID_POINTS = 20_000


def _mix_quantile(pairs: Sequence, n: int, q: float) -> float:
    """Nearest-rank quantile of a weighted mix.

    ``pairs`` is value-sorted ``(value, count)`` with counts summing to
    ``n`` — the per-model service distribution without materializing a
    list element per request.
    """
    rank = max(1, math.ceil(q / 100 * n))
    cum = 0
    for value, count in pairs:
        cum += count
        if cum >= rank:
            return value
    return pairs[-1][0]


@dataclass(frozen=True)
class AnalyticServingEstimate:
    """Closed-form counterpart of a :class:`ServingReport`.

    ``p50_ms``/``p95_ms``/``p99_ms``, ``throughput_rps``, and
    ``utilization`` are point estimates; each has a ``*_lo``/``*_hi``
    bracket the simulated value is expected to fall inside.
    """

    fleet: int
    n_requests: int
    duration_ms: float
    mean_qps: float
    peak_qps: float
    #: Offered load in erlangs (availability-derated): the fleet is
    #: stable while this stays below ``fleet``.
    erlangs: float
    mean_service_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    p50_lo_ms: float
    p50_hi_ms: float
    p95_lo_ms: float
    p95_hi_ms: float
    p99_lo_ms: float
    p99_hi_ms: float
    throughput_rps: float
    throughput_lo_rps: float
    throughput_hi_rps: float
    utilization: float
    utilization_lo: float
    utilization_hi: float
    availability: float = 1.0

    def as_dict(self) -> dict:
        """JSON-friendly flattening (CLI ``--json`` output)."""
        return {
            "fleet": self.fleet,
            "requests": self.n_requests,
            "duration_ms": self.duration_ms,
            "mean_qps": self.mean_qps,
            "peak_qps": self.peak_qps,
            "erlangs": self.erlangs,
            "mean_service_ms": self.mean_service_ms,
            "latency_ms": {
                "p50": self.p50_ms, "p95": self.p95_ms, "p99": self.p99_ms,
                "p50_bracket": [self.p50_lo_ms, self.p50_hi_ms],
                "p95_bracket": [self.p95_lo_ms, self.p95_hi_ms],
                "p99_bracket": [self.p99_lo_ms, self.p99_hi_ms],
            },
            "throughput_rps": self.throughput_rps,
            "throughput_bracket_rps": [self.throughput_lo_rps,
                                       self.throughput_hi_rps],
            "utilization": self.utilization,
            "utilization_bracket": [self.utilization_lo,
                                    self.utilization_hi],
            "availability": self.availability,
        }


def estimate_serving(
    accel: ProTEA,
    requests: Sequence[Request],
    fleet: int,
    *,
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    duration_ms: Optional[float] = None,
    failures=None,
    window_ms: float = 50.0,
    service: Optional[ServiceTimeModel] = None,
) -> AnalyticServingEstimate:
    """Estimate one serving scenario without simulating it.

    Same workload-shaping arguments as
    :func:`repro.serving.cluster.simulate` (scheduler policy does not
    enter the closed form: the wait model assumes work conservation,
    which every shipped scheduler satisfies).  ``fleet`` is an
    ``int >= 1``.  ``failures`` is a
    :class:`~repro.sim.failures.FailurePlan`; ``window_ms`` is the
    peak-rate window of the arrival envelope.

    Most terms do not depend on ``fleet``: the per-model counts and
    mix shares, the sorted arrival times and their envelope, the
    per-model single and full-batch service times, the switch
    probability, and the availability derating.  Only the point batch
    size, the fluid walks, the M/M/c tails and the makespans do.  So
    :func:`~repro.analytic.capacity.propose_fleet` prepares the
    workload terms once per proposal (:func:`_prepare`), and callers
    evaluating many fleet sizes pass a shared ``service``
    (:class:`ServiceTimeModel`) so the latency-report memo carries
    across calls.
    """
    check_count("fleet", fleet)
    if not requests:
        raise ValueError("cannot estimate an empty workload")
    return _estimate(accel, _prepare(requests, duration_ms, window_ms),
                     fleet, batching, models, reprogram_latency_ms,
                     failures, service)


class _Workload(NamedTuple):
    """The fleet-independent part of an estimate's input."""

    #: Requests per model.
    counts: Counter
    #: Arrival times, sorted.
    times: List[float]
    env: ArrivalEnvelope
    #: Every ``stride``-th arrival feeds the fluid walks.
    stride: int
    fluid_times: List[float]


def _prepare(requests: Sequence[Request], duration_ms: Optional[float],
             window_ms: float = 50.0) -> _Workload:
    """Count, sort and envelope a non-empty workload once."""
    times = sorted(r.t_ms for r in requests)
    env = ArrivalEnvelope.from_times(times, duration_ms=duration_ms,
                                     window_ms=window_ms)
    stride = max(1, math.ceil(len(times) / _MAX_FLUID_POINTS))
    return _Workload(Counter(r.model for r in requests), times, env,
                     stride, times[::stride] if stride > 1 else times)


def _estimate(accel: ProTEA, workload: _Workload, fleet: int,
              batching: Optional[BatchingPolicy],
              models: Optional[Mapping[str, TransformerConfig]],
              reprogram_latency_ms: float, failures,
              service: Optional[ServiceTimeModel]
              ) -> AnalyticServingEstimate:
    """:func:`estimate_serving` on a prepared workload."""
    policy = batching or no_batching()
    if service is None:
        service = ServiceTimeModel(accel, models or MODEL_ZOO)
    counts, times, env, stride, fluid_times = workload
    n = len(times)
    shares: Dict[str, float] = {m: c / n for m, c in counts.items()}
    single = {m: service.batch_service_ms(m, 1) for m in counts}
    max_batch = policy.max_batch
    full = {m: service.batch_service_ms(m, max_batch) for m in counts}
    switch_prob = ((1.0 - sum(s * s for s in shares.values()))
                   if reprogram_latency_ms > 0 and len(counts) > 1 else 0.0)
    reprogram_ms = reprogram_latency_ms if switch_prob > 0 else 0.0

    availability = 1.0
    repair_pad_ms = 0.0
    if failures is not None:
        mtbf = float(failures.mtbf_ms)
        mttr = float(failures.mttr_ms)
        availability = mtbf / (mtbf + mttr)
        repair_pad_ms = mttr

    lam_per_ms = env.mean_qps / 1e3
    drain_fluid = fleet * availability  # work-ms drained per ms

    # Point service: batches fill in proportion to how much work piles
    # up per drain opportunity (clamped to the policy's max batch).
    mean_single = sum(shares[m] * single[m] for m in counts)
    b_point = min(max_batch,
                  max(1, math.ceil(lam_per_ms * mean_single / fleet)))
    batched = {m: service.batch_service_ms(m, b_point) for m in counts}
    service_pt = (sum(shares[m] * batched[m] for m in counts)
                  + switch_prob * reprogram_ms)
    work_pt = (sum(shares[m] * batched[m] for m in counts)
               + switch_prob * reprogram_ms) / b_point
    mu_pt = availability / work_pt
    erlangs = lam_per_ms / mu_pt

    fl_pt, backlog_pt = fluid_waits_ms(fluid_times, work_pt * stride,
                                       drain_fluid)
    fl_pt.sort()

    # Upper bracket: costliest full batch + a switch on every dispatch
    # (+ the dynamic-batching head-of-line deadline, which can delay a
    # request without any backlog at all).
    service_hi = (max(full.values()) + reprogram_ms
                  + (policy.timeout_ms or 0.0))
    work_hi = max(single.values()) + reprogram_ms
    mu_hi = availability / work_hi
    fl_hi, backlog_hi = fluid_waits_ms(fluid_times, work_hi * stride,
                                       drain_fluid)
    fl_hi.sort()
    # Stochastic term of the upper bracket: the conditional-on-wait
    # M/M/c tail at the highest arrival rate the fleet can still drain
    # (the peak window where possible, else the mean; a rate the fleet
    # cannot drain is the fluid walk's regime).
    lam_peak = env.peak_qps / 1e3
    mmc_hi_rate = 0.0
    for rate in (lam_peak, lam_per_ms):
        if fleet * mu_hi > rate:
            mmc_hi_rate = rate
            break

    # Per-request latency floor: a request can never finish faster than
    # one single-request invocation of its own model.  The point
    # quantile draws from the batched-service distribution the same way
    # — a mixed workload's p99 is dominated by its costliest model, not
    # the mean of the mix.
    floors = sorted((single[m], counts[m]) for m in counts)
    points = sorted((batched[m] + switch_prob * reprogram_ms, counts[m])
                    for m in counts)

    quantiles: Dict[float, Dict[str, float]] = {}
    for q in _QUANTILES:
        mmc_pt = (wait_quantile_ms(fleet, erlangs,
                                   fleet * mu_pt - lam_per_ms, q)
                  if erlangs < fleet else 0.0)
        mmc_hi = (wait_quantile_ms(fleet, mmc_hi_rate / mu_hi,
                                   fleet * mu_hi - mmc_hi_rate, q,
                                   bracket=True)
                  if mmc_hi_rate > 0 else 0.0)
        lo = _mix_quantile(floors, n, q)
        hi = (service_hi + max(nearest_rank(fl_hi, q), mmc_hi)
              + repair_pad_ms)
        point = (_mix_quantile(points, n, q)
                 + max(nearest_rank(fl_pt, q), mmc_pt))
        quantiles[q] = {
            "point": min(max(point, lo), hi),
            "lo": lo,
            "hi": hi,
        }

    # Makespan brackets bound throughput (= n / makespan) from both
    # sides: the run cannot end before the last arrival finishes its
    # cheapest possible invocation, nor later than the time the fleet
    # needs to drain the worst-case backlog behind it.
    last_t = times[-1]
    makespan_pt = last_t + max(backlog_pt / drain_fluid, service_pt)
    makespan_lo = last_t + min(single.values())
    makespan_hi = (last_t + backlog_hi / drain_fluid + service_hi
                   + repair_pad_ms)

    work_total_pt = n * work_pt
    work_total_lo = sum(counts[m] * full[m] / max_batch for m in counts)
    work_total_hi = sum(counts[m] * (single[m] + reprogram_ms)
                        for m in counts)

    return AnalyticServingEstimate(
        fleet=fleet,
        n_requests=n,
        duration_ms=env.duration_ms,
        mean_qps=env.mean_qps,
        peak_qps=env.peak_qps,
        erlangs=erlangs,
        mean_service_ms=service_pt,
        p50_ms=quantiles[50.0]["point"],
        p95_ms=quantiles[95.0]["point"],
        p99_ms=quantiles[99.0]["point"],
        p50_lo_ms=quantiles[50.0]["lo"],
        p50_hi_ms=quantiles[50.0]["hi"],
        p95_lo_ms=quantiles[95.0]["lo"],
        p95_hi_ms=quantiles[95.0]["hi"],
        p99_lo_ms=quantiles[99.0]["lo"],
        p99_hi_ms=quantiles[99.0]["hi"],
        throughput_rps=n / (makespan_pt / 1e3),
        throughput_lo_rps=n / (makespan_hi / 1e3),
        throughput_hi_rps=n / (makespan_lo / 1e3),
        utilization=min(1.0, work_total_pt / (fleet * makespan_pt)),
        utilization_lo=work_total_lo / (fleet * makespan_hi),
        utilization_hi=min(1.0, work_total_hi / (fleet * makespan_lo)),
        availability=availability,
    )
