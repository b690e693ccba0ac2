"""Summary-detail result containers for the web-scale fast path.

The full-detail engines materialize one ``RequestRecord`` per
request — at 10^6+ requests that object churn *is* the profile, and
:func:`repro.serving.slo.summarize` immediately reduces the records to
order statistics anyway.  ``detail="summary"`` runs skip the
materialization and accumulate exactly what the report needs while the
events fire:

* per-model latency lists (the *exact* multiset, so every percentile —
  nearest-rank order statistics — is bit-identical to the full path);
* per-model wait/batch-size sums (float accumulation order follows
  completion order, not record order, so means differ from the full
  path by summation order only — many ulps on large runs, bounded by
  about ``n * 2**-52`` relative; percentiles and counts never differ);
* the queue-depth step integral, accumulated with the same arithmetic
  (and the same float-add order) as
  :func:`repro.serving.slo._time_weighted_mean`;
* the per-instance stats the engines already track incrementally.

These containers deliberately import nothing from :mod:`repro.serving`
(the façade imports the engines, which import this module — a
serving-layer import here would be a cycle).  The ``instances`` lists
carry the serving layer's frozen stats objects by reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["ServeSummary", "GenerationSummary"]


class _FleetTotals:
    """Fleet-wide totals a run result derives from its per-instance
    stats (full results and summaries of both workload classes)."""

    @property
    def total_switches(self) -> int:
        return sum(i.switch_count for i in self.instances)

    @property
    def total_reprogram_time_ms(self) -> float:
        return sum(i.reprogram_time_ms for i in self.instances)


class _SummaryTotals(_FleetTotals):
    """What both summaries add: closing the pre-integrated depth."""

    def mean_queue_depth(self, horizon_ms: float) -> float:
        """Close the depth integral at ``horizon_ms`` (same float-add
        order as ``_time_weighted_mean`` over the full sample list)."""
        if horizon_ms <= 0:
            return 0.0
        area = self.depth_area + self.depth_last * max(
            0.0, horizon_ms - self.depth_last_t)
        return area / horizon_ms


@dataclass
class ServeSummary(_SummaryTotals):
    """Accumulated metrics of one ``detail="summary"`` serve run.

    Field-for-field this is the information :func:`summarize` extracts
    from a full :class:`~repro.serving.cluster.SimulationResult`,
    pre-reduced: :func:`repro.serving.slo.summarize` accepts either and
    returns the same report (percentiles and counts bit-identical,
    means equal up to float summation order).
    """

    total_requests: int
    makespan_ms: float
    n_instances: int
    scheduler: str
    batching: str
    #: model → latency list in completion order (exact multiset).
    model_lats: Dict[str, List[float]] = field(default_factory=dict)
    #: model → sum of per-request wait (dispatch - arrival) ms.
    model_wait_sum: Dict[str, float] = field(default_factory=dict)
    #: model → sum of batch_size per *request* (i.e. Σ size² per batch).
    model_batch_sq: Dict[str, int] = field(default_factory=dict)
    #: serving-layer ``InstanceStats``, one per instance.
    instances: List[object] = field(default_factory=list)
    # Queue-depth step function, pre-integrated: area up to the last
    # change point, plus the last (t, depth) so the report can close
    # the integral against its horizon.
    depth_area: float = 0.0
    depth_last_t: float = 0.0
    depth_last: int = 0
    max_queue_depth: int = 0
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    degraded_count: Optional[int] = None
    #: Latencies of completed requests that were degraded or retried
    #: (``None`` when the run injected no failures).
    touched_lats: Optional[List[float]] = None


@dataclass
class GenerationSummary(_SummaryTotals):
    """Accumulated metrics of one ``detail="summary"`` generation run.

    Mirrors what :func:`repro.serving.slo.summarize_generation` reads
    off a full :class:`GenerationSimulationResult`: TTFT/TPOT/latency
    multisets (exact percentiles), wait sums, token counts, and the
    queue-depth integral.
    """

    total_requests: int
    total_tokens: int
    makespan_ms: float
    n_instances: int
    slots: int
    scheduler: str
    #: Per-request metric lists in completion order (exact multisets).
    ttfts: List[float] = field(default_factory=list)
    #: TPOT of requests with > 1 output token (others have no TPOT).
    tpots: List[float] = field(default_factory=list)
    lats: List[float] = field(default_factory=list)
    wait_sum: float = 0.0
    #: Parallel to ``ttfts``/``lats``: what SLO goodput needs per
    #: request, without materializing per-request tuples.  ``req_tpots``
    #: holds 0.0 for single-token requests (never read for those).
    out_tokens: List[int] = field(default_factory=list)
    req_tpots: List[float] = field(default_factory=list)
    instances: List[object] = field(default_factory=list)
    depth_area: float = 0.0
    depth_last_t: float = 0.0
    depth_last: int = 0
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    total_preemptions: int = 0
