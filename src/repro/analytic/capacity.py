"""Closed-form fleet sizing: the analytic half of ``plan_capacity``.

:func:`propose_fleet` binary-searches the smallest fleet whose
*analytic* estimate (:func:`repro.analytic.serving.estimate_serving`)
meets the p99 SLO and throughput target — valid because the analytic
p99 is monotone non-increasing and the analytic throughput monotone
non-decreasing in fleet size (property-tested in ``tests/analytic``).
A proposal costs a few O(n) envelope walks instead of full
event-simulation replays; ``plan_capacity`` then confirms at (and
brackets around) the proposal with the event simulator.

Both searches share this module's SLO test (:func:`_meets_targets`)
and bisection (:func:`_bisect_min`), and :func:`propose_fleet` checks
the targets both of them take.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence

from .._checks import check_positive, is_count
from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..serving.batching import BatchingPolicy, ServiceTimeModel
from ..serving.workload import Request
from .serving import AnalyticServingEstimate, _estimate, _prepare

__all__ = ["FleetProposal", "propose_fleet"]

#: A plan must serve at least this share of ``target_qps``.
_QPS_FLOOR = 0.95


def _meets_targets(stats, target_p99_ms: float,
                   target_qps: Optional[float]) -> bool:
    """The planner's SLO test, for an analytic estimate or a simulated
    report alike: p99 <= ``target_p99_ms`` and, when ``target_qps`` is
    set, throughput >= ``_QPS_FLOOR * target_qps``."""
    return stats.p99_ms <= target_p99_ms and (
        target_qps is None
        or stats.throughput_rps >= _QPS_FLOOR * target_qps)


def _bisect_min(meets: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest fleet in ``(lo, hi]`` that ``meets``, given that ``hi``
    meets and ``lo`` does not (``lo=0`` is never asked): the predicate
    is monotone in fleet size, so halving the bracket finds it."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class FleetProposal:
    """Outcome of :func:`propose_fleet`."""

    #: Proposed fleet size (clamped to ``max_instances``).
    instances: int
    #: The analytic estimate at ``instances``.
    estimate: AnalyticServingEstimate
    #: Whether the analytic model believes ``instances`` meets the
    #: targets (False means even ``max_instances`` falls short).
    feasible: bool
    target_p99_ms: float
    target_qps: Optional[float]

    def as_dict(self) -> dict:
        return {
            "instances": self.instances,
            "feasible": self.feasible,
            "target_p99_ms": self.target_p99_ms,
            "target_qps": self.target_qps,
            "estimate": self.estimate.as_dict(),
        }


def propose_fleet(
    accel: ProTEA,
    requests: Sequence[Request],
    target_p99_ms: float,
    target_qps: Optional[float] = None,
    *,
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    max_instances: int = 256,
    failures=None,
    duration_ms: Optional[float] = None,
) -> FleetProposal:
    """Smallest fleet the closed-form model expects to meet the SLO.

    Uses :func:`repro.serving.slo.plan_capacity`'s criteria
    (:func:`_meets_targets`) on the analytic estimate.  Never raises on
    infeasibility — it returns ``max_instances`` with ``feasible=False``
    and lets the caller's confirming simulations issue the
    authoritative verdict.  It does raise ``ValueError`` on a
    ``target_p99_ms`` or ``target_qps`` that is not positive and finite
    (every fleet meets an infinite p99 target and none a NaN one), an
    empty workload, and a ``max_instances`` that is not an ``int >= 1``.
    """
    check_positive("target_p99_ms", target_p99_ms)
    if not requests:
        raise ValueError("cannot plan capacity for an empty workload")
    if target_qps is not None:
        check_positive("target_qps", target_qps)
    if not is_count(max_instances):
        raise ValueError(
            "cannot plan capacity over an empty fleet: max_instances "
            f"must be an int >= 1, got {max_instances!r}")

    estimates: Dict[int, AnalyticServingEstimate] = {}
    # One service-time model and one prepared workload across every
    # candidate fleet: the latency reports depend only on (model,
    # seq_len), and the counts, sorted times and envelope not at all.
    service = ServiceTimeModel(accel, models or MODEL_ZOO)
    workload = _prepare(requests, duration_ms)

    def meets(n: int) -> bool:
        est = estimates.get(n)
        if est is None:
            est = _estimate(accel, workload, n, batching, models,
                            reprogram_latency_ms, failures, service)
            estimates[n] = est
        return _meets_targets(est, target_p99_ms, target_qps)

    if not meets(max_instances):
        return FleetProposal(
            instances=max_instances, estimate=estimates[max_instances],
            feasible=False, target_p99_ms=target_p99_ms,
            target_qps=target_qps)
    hi = _bisect_min(meets, 0, max_instances)
    return FleetProposal(
        instances=hi, estimate=estimates[hi], feasible=True,
        target_p99_ms=target_p99_ms, target_qps=target_qps)
