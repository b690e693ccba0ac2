"""Serving metrics and SLO-driven capacity planning.

Percentiles use the nearest-rank definition (exact, no interpolation),
so two runs with identical traces report bit-identical metrics.

:func:`plan_capacity` answers the deployment question the paper's
single-instance numbers cannot: *how many reprogrammable instances does
a target traffic level need to stay inside a p99 latency SLO?*  It is
analytic-first: the closed-form model (:mod:`repro.analytic`) proposes
a fleet size, and the event simulation confirms at — and binary-
searches the bracket around — the proposal instead of probing up from
one instance.  The confirming probes replay the same seeded workload
at ``detail="summary"`` (exact for every statistic the planner reads),
so the returned minimum is still confirmed by, and reproducible from,
a direct simulation run; ``mode="probe"`` keeps the seed probe-from-1
search, and ``confirm=False`` skips simulation entirely and returns
the analytic proposal.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import attrgetter, itemgetter, sub
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytic.capacity import FleetProposal
from ..core.accelerator import ProTEA
from ..nn.model_zoo import TransformerConfig
from ..sim.summary import GenerationSummary, ServeSummary
from .batching import BatchingPolicy
from .cluster import InstanceStats, SimulationResult, simulate
from .generation import GenerationSimulationResult
from .workload import Request

__all__ = ["nearest_rank", "percentile", "ModelMetrics", "ServingReport",
           "summarize", "GenerationServingReport", "summarize_generation",
           "CapacityPlan", "plan_capacity"]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty sequence.

    The one rank rule behind :func:`percentile`, every report
    percentile and the analytic estimates: sort a multiset once, then
    read each quantile off the sorted list.
    """
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    Matches ``numpy.percentile(..., method="inverted_cdf")`` at every
    rank, including the edges (q=0 → smallest sample, q=100 → largest,
    single-sample inputs) — regression-tested against numpy.  An empty
    input has no percentile of any rank and raises instead of leaking
    an index error (or a silent NaN) to the caller.
    """
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    return nearest_rank(sorted(values), q)


def _tails(values: Sequence[float], *qs: float) -> tuple:
    """Nearest-rank percentiles ``qs`` of ``values`` from one sort;
    empty runs report NaN."""
    if not values:
        return (math.nan,) * len(qs)
    ordered = sorted(values)
    return tuple(nearest_rank(ordered, q) for q in qs)


@dataclass(frozen=True)
class ModelMetrics:
    """Latency/throughput profile of one model within a run."""

    model: str
    count: int
    throughput_rps: float
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_wait_ms: float
    mean_batch_size: float
    slo_attainment: Optional[float] = None


@dataclass(frozen=True)
class ServingReport:
    """Aggregate + per-model + per-instance view of one simulation."""

    total_requests: int
    horizon_ms: float
    throughput_rps: float
    utilization: float
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_wait_ms: float
    mean_queue_depth: float
    max_queue_depth: int
    total_switches: int
    total_reprogram_time_ms: float
    scheduler: str
    batching: str
    n_instances: int
    slo_ms: Optional[float] = None
    slo_attainment: Optional[float] = None
    per_model: Dict[str, ModelMetrics] = field(default_factory=dict)
    instances: List[InstanceStats] = field(default_factory=list)
    # Failure-injection metrics (None/0 unless the run injected faults;
    # reports omit them then, keeping non-failure renders byte-stable).
    #: Fleet-time fraction up across the run.
    availability: Optional[float] = None
    total_failures: int = 0
    #: Dispatches lost to faults and re-served elsewhere.
    total_retries: int = 0
    #: Requests that arrived while at least one instance was down.
    degraded_count: Optional[int] = None
    #: Tail latency of the degraded-arrival subset (falls back to the
    #: overall p99 when no request saw a degraded fleet).
    p99_degraded_ms: Optional[float] = None
    #: :meth:`repro.obs.Watchdog.summary` of the attached watchdog
    #: (None unless the run was watched; reports omit it then).
    watch: Optional[dict] = None

    def as_dict(self) -> dict:
        """JSON-friendly flattening (CLI ``--json`` output).

        Empty-run statistics are NaN internally; they become ``null``
        here because ``json.dumps`` would emit literal ``NaN``, which
        strict parsers reject."""
        def num(v: float) -> Optional[float]:
            return None if isinstance(v, float) and math.isnan(v) else v

        out = {
            "total_requests": self.total_requests,
            "horizon_ms": self.horizon_ms,
            "throughput_rps": num(self.throughput_rps),
            "utilization": self.utilization,
            "latency_ms": {
                "mean": num(self.mean_latency_ms),
                "p50": num(self.p50_ms),
                "p95": num(self.p95_ms),
                "p99": num(self.p99_ms),
            },
            "mean_wait_ms": num(self.mean_wait_ms),
            "queue_depth": {"mean": self.mean_queue_depth,
                            "max": self.max_queue_depth},
            "reprogramming": {"switches": self.total_switches,
                              "time_ms": self.total_reprogram_time_ms},
            "scheduler": self.scheduler,
            "batching": self.batching,
            "instances": self.n_instances,
            "per_model": {
                name: {
                    "count": m.count,
                    "throughput_rps": m.throughput_rps,
                    "mean_latency_ms": m.mean_latency_ms,
                    "p50_ms": m.p50_ms,
                    "p95_ms": m.p95_ms,
                    "p99_ms": m.p99_ms,
                    "mean_wait_ms": m.mean_wait_ms,
                    "mean_batch_size": m.mean_batch_size,
                    **({"slo_attainment": m.slo_attainment}
                       if m.slo_attainment is not None else {}),
                }
                for name, m in sorted(self.per_model.items())
            },
            "per_instance": [
                {"index": i.index, "requests": i.requests,
                 "batches": i.batches, "busy_ms": i.busy_ms,
                 "switches": i.switch_count,
                 # switch_ms: time this instance spent reprogramming —
                 # the text report shows it, so the JSON must too.
                 "switch_ms": i.reprogram_time_ms}
                for i in self.instances
            ],
        }
        if self.slo_ms is not None:
            out["slo"] = {"p_latency_ms": self.slo_ms,
                          "attainment": self.slo_attainment}
        if self.availability is not None:
            out["failures"] = {
                "availability": self.availability,
                "count": self.total_failures,
                "retries": self.total_retries,
                "degraded_requests": self.degraded_count,
                "p99_degraded_ms": num(self.p99_degraded_ms),
            }
        if self.watch is not None:
            out["watch"] = self.watch
        return out


def _time_weighted_mean(samples: Sequence[tuple], horizon_ms: float) -> float:
    """Mean of a step function sampled at its change points."""
    if not samples or horizon_ms <= 0:
        return 0.0
    area, depth, prev_t = 0.0, 0, 0.0
    for t, d in samples:
        area += depth * (t - prev_t)
        depth, prev_t = d, t
    area += depth * max(0.0, horizon_ms - prev_t)
    return area / horizon_ms


#: Record field readers: the full-detail summaries read fields, never
#: the records' derived properties, so each per-request metric is one
#: C-level subtraction over two field columns.
_T_ARRIVAL = attrgetter("t_arrival_ms")
_T_DISPATCH = attrgetter("t_dispatch_ms")
_T_ADMIT = attrgetter("t_admit_ms")
_T_FIRST_TOKEN = attrgetter("t_first_token_ms")
_T_COMPLETE = attrgetter("t_complete_ms")
_MODEL = attrgetter("model")
_BATCH_SIZE = attrgetter("batch_size")
_OUTPUT_TOKENS = attrgetter("output_tokens")
#: Depth of a ``(t_ms, depth)`` queue sample.
_DEPTH = itemgetter(1)


def _check_slo(name: str, slo_ms: Optional[float]) -> None:
    """An SLO is optional, but a set one must be positive and finite: a
    NaN one is met by no request and would report 0% attainment, an
    infinite one by every request."""
    if slo_ms is not None and not 0 < slo_ms < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {slo_ms}")


def summarize(result: Union[SimulationResult, ServeSummary],
              slo_ms: Optional[float] = None,
              watch: Optional[dict] = None) -> ServingReport:
    """Reduce a simulation to its serving metrics.

    Accepts either a full :class:`SimulationResult` or the
    pre-accumulated :class:`~repro.sim.summary.ServeSummary` of a
    ``detail="summary"`` run.  Percentiles and counts are bit-identical
    between the two; means differ by float summation order only (the
    summary path sums in completion order, the full path in rid order),
    which moves them by up to about ``n`` ulps, not just the last one.

    The full path reads record fields column-wise — latencies and
    waits are ``t_complete_ms - t_arrival_ms`` and ``t_dispatch_ms -
    t_arrival_ms``, computed once in rid order — and both paths sort
    each latency multiset once and read p50/p95/p99 off it.

    ``watch`` is the :meth:`repro.obs.Watchdog.summary` dict of a
    watchdog that observed this run; it rides along into the report
    (and its ``--json``/text renders) untouched.
    """
    _check_slo("slo_ms", slo_ms)
    if isinstance(result, ServeSummary):
        names = sorted(result.model_lats)
        if len(names) == 1:
            all_lats: List[float] = result.model_lats[names[0]]
        else:
            all_lats = []
            for name in names:
                all_lats.extend(result.model_lats[name])
        return _serving_report(
            result, slo_ms, watch, all_lats,
            sum(result.model_wait_sum[name] for name in names),
            result.model_lats, result.model_wait_sum,
            result.model_batch_sq, result.touched_lats,
            result.degraded_count,
            result.mean_queue_depth(result.makespan_ms),
            result.max_queue_depth)
    recs = result.records
    lats = list(map(sub, map(_T_COMPLETE, recs), map(_T_ARRIVAL, recs)))
    names = set(map(_MODEL, recs))
    if len(names) <= 1:
        # Single-model runs: the per-model multiset IS the overall one.
        wait_sum = sum(map(sub, map(_T_DISPATCH, recs),
                           map(_T_ARRIVAL, recs)))
        model_lats = dict.fromkeys(names, lats)
        model_wait_sum = dict.fromkeys(names, wait_sum)
        model_batch_sum = dict.fromkeys(names, sum(map(_BATCH_SIZE, recs)))
    else:
        waits = list(map(sub, map(_T_DISPATCH, recs), map(_T_ARRIVAL, recs)))
        wait_sum = sum(waits)
        # Float sums go through sum() over rid-ordered lists, so every
        # mean is bit-identical to the per-model-filter arithmetic.
        model_lats = {name: [] for name in names}
        model_waits = {name: [] for name in names}
        model_batch_sum = dict.fromkeys(names, 0)
        for r, lat, wait in zip(recs, lats, waits):
            model = r.model
            model_lats[model].append(lat)
            model_waits[model].append(wait)
            model_batch_sum[model] += r.batch_size
        model_wait_sum = {name: sum(w) for name, w in model_waits.items()}

    degraded_count = touched = None
    if result.availability is not None:
        touched = [lat for lat, r in zip(lats, recs)
                   if r.degraded or r.retries]
        degraded_count = sum(1 for r in recs if r.degraded)
    return _serving_report(
        result, slo_ms, watch, lats, wait_sum, model_lats, model_wait_sum,
        model_batch_sum, touched, degraded_count,
        _time_weighted_mean(result.queue_samples, result.makespan_ms),
        max(map(_DEPTH, result.queue_samples), default=0))


def _serving_report(run: Union[SimulationResult, ServeSummary],
                    slo_ms: Optional[float], watch: Optional[dict],
                    lats: Sequence[float], wait_sum: float,
                    model_lats: Mapping[str, Sequence[float]],
                    model_wait_sum: Mapping[str, float],
                    model_batch_sum: Mapping[str, int],
                    touched: Optional[Sequence[float]],
                    degraded_count: Optional[int],
                    mean_queue_depth: float,
                    max_queue_depth: int) -> ServingReport:
    """The report both :func:`summarize` paths share.

    ``lats`` is every request's latency in the path's own order (its
    sum is the mean's numerator); ``model_lats`` splits the same
    multiset per model.  Each multiset is sorted once — a single-model
    run's per-model list is the overall list, sorted once for both.
    """
    horizon = run.makespan_ms
    horizon_s = horizon / 1e3 if horizon > 0 else math.nan
    names = sorted(model_lats)
    ordered_by_model = {name: sorted(model_lats[name]) for name in names}
    all_sorted = (ordered_by_model[names[0]] if len(names) == 1
                  else sorted(lats))
    n = len(all_sorted)

    def attainment(ordered: Sequence[float]) -> Optional[float]:
        if slo_ms is None or not ordered:
            return None
        return bisect_right(ordered, slo_ms) / len(ordered)

    per_model: Dict[str, ModelMetrics] = {}
    for name in names:
        mlats = model_lats[name]
        cnt = len(mlats)
        ordered = ordered_by_model[name]
        per_model[name] = ModelMetrics(
            model=name,
            count=cnt,
            throughput_rps=cnt / horizon_s,
            mean_latency_ms=sum(mlats) / cnt,
            p50_ms=nearest_rank(ordered, 50),
            p95_ms=nearest_rank(ordered, 95),
            p99_ms=nearest_rank(ordered, 99),
            mean_wait_ms=model_wait_sum[name] / cnt,
            mean_batch_size=model_batch_sum[name] / cnt,
            slo_attainment=attainment(ordered),
        )

    p50, p95, p99 = ((nearest_rank(all_sorted, 50),
                      nearest_rank(all_sorted, 95),
                      nearest_rank(all_sorted, 99)) if n
                     else (math.nan,) * 3)
    p99_degraded = None
    if run.availability is not None:
        # An undominatable NaN would poison Pareto fronts: when no
        # request saw a degraded fleet, the degraded tail IS the tail.
        p99_degraded = percentile(touched, 99) if touched else p99

    busy = sum(i.busy_ms for i in run.instances)
    return ServingReport(
        total_requests=n,
        horizon_ms=horizon,
        throughput_rps=n / horizon_s if n else 0.0,
        utilization=(busy / (run.n_instances * horizon)
                     if horizon > 0 else 0.0),
        mean_latency_ms=sum(lats) / n if n else math.nan,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        mean_wait_ms=wait_sum / n if n else math.nan,
        mean_queue_depth=mean_queue_depth,
        max_queue_depth=max_queue_depth,
        total_switches=run.total_switches,
        total_reprogram_time_ms=run.total_reprogram_time_ms,
        scheduler=run.scheduler,
        batching=run.batching,
        n_instances=run.n_instances,
        slo_ms=slo_ms,
        slo_attainment=attainment(all_sorted),
        per_model=per_model,
        instances=list(run.instances),
        availability=run.availability,
        total_failures=run.total_failures,
        total_retries=run.total_retries,
        degraded_count=degraded_count,
        p99_degraded_ms=p99_degraded,
        watch=watch,
    )


@dataclass(frozen=True)
class GenerationServingReport:
    """Token-level metrics of one continuous-batching simulation.

    TTFT (time to first token) and TPOT (time per output token) are the
    generation SLO pair; **goodput** is the tokens/s produced by
    requests that met *both* SLOs — the capacity a generation service
    can actually sell.
    """

    total_requests: int
    total_tokens: int
    horizon_ms: float
    throughput_rps: float
    tokens_per_s: float
    utilization: float
    mean_ttft_ms: float
    p50_ttft_ms: float
    p95_ttft_ms: float
    p99_ttft_ms: float
    mean_tpot_ms: float
    p99_tpot_ms: float
    mean_latency_ms: float
    p99_latency_ms: float
    mean_wait_ms: float
    mean_queue_depth: float
    total_switches: int
    total_reprogram_time_ms: float
    scheduler: str
    n_instances: int
    slots: int
    ttft_slo_ms: Optional[float] = None
    tpot_slo_ms: Optional[float] = None
    slo_attainment: Optional[float] = None
    goodput_tokens_per_s: Optional[float] = None
    instances: List["object"] = field(default_factory=list)
    # Scenario-layer metrics (omitted from reports when inactive).
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    total_preemptions: int = 0
    #: :meth:`repro.obs.Watchdog.summary` of the attached watchdog
    #: (None unless the run was watched; reports omit it then).
    watch: Optional[dict] = None

    def as_dict(self) -> dict:
        """JSON-friendly flattening (NaN → null for strict parsers)."""
        def num(v):
            return (None if isinstance(v, float) and math.isnan(v) else v)

        out = {
            "total_requests": self.total_requests,
            "total_tokens": self.total_tokens,
            "horizon_ms": self.horizon_ms,
            "throughput_rps": num(self.throughput_rps),
            "tokens_per_s": num(self.tokens_per_s),
            "utilization": self.utilization,
            "ttft_ms": {"mean": num(self.mean_ttft_ms),
                        "p50": num(self.p50_ttft_ms),
                        "p95": num(self.p95_ttft_ms),
                        "p99": num(self.p99_ttft_ms)},
            "tpot_ms": {"mean": num(self.mean_tpot_ms),
                        "p99": num(self.p99_tpot_ms)},
            "latency_ms": {"mean": num(self.mean_latency_ms),
                           "p99": num(self.p99_latency_ms)},
            "mean_wait_ms": num(self.mean_wait_ms),
            "queue_depth_mean": self.mean_queue_depth,
            "reprogramming": {"switches": self.total_switches,
                              "time_ms": self.total_reprogram_time_ms},
            "scheduler": self.scheduler,
            "instances": self.n_instances,
            "slots": self.slots,
            "per_instance": [
                {"index": i.index, "requests": i.requests,
                 "steps": i.steps, "prefills": i.prefills,
                 "tokens": i.tokens, "busy_ms": i.busy_ms,
                 "switches": i.switch_count,
                 "switch_ms": i.reprogram_time_ms}
                for i in self.instances
            ],
        }
        if self.ttft_slo_ms is not None or self.tpot_slo_ms is not None:
            out["slo"] = {"ttft_ms": self.ttft_slo_ms,
                          "tpot_ms": self.tpot_slo_ms,
                          "attainment": num(self.slo_attainment),
                          "goodput_tokens_per_s":
                              num(self.goodput_tokens_per_s)}
        if self.availability is not None:
            out["failures"] = {"availability": self.availability,
                               "count": self.total_failures,
                               "retries": self.total_retries}
        if self.total_preemptions:
            out["preemptions"] = self.total_preemptions
        if self.watch is not None:
            out["watch"] = self.watch
        return out


def summarize_generation(
    result: Union[GenerationSimulationResult, GenerationSummary],
    ttft_slo_ms: Optional[float] = None,
    tpot_slo_ms: Optional[float] = None,
    watch: Optional[dict] = None,
) -> GenerationServingReport:
    """Reduce a generation simulation to its TTFT/TPOT/goodput metrics.

    Accepts either a full :class:`GenerationSimulationResult` or the
    pre-accumulated :class:`~repro.sim.summary.GenerationSummary` of a
    ``detail="summary"`` run.  Percentiles and counts are bit-identical
    between the two; means differ by float summation order only (the
    summary path sums in completion order, the full path in rid order),
    which moves them by up to about ``n`` ulps, not just the last one.

    As in :func:`summarize`, the full path computes each per-request
    metric once from the record fields and each multiset is sorted
    once.

    ``watch`` is the :meth:`repro.obs.Watchdog.summary` dict of a
    watchdog that observed this run (see :func:`summarize`).
    """
    _check_slo("ttft_slo_ms", ttft_slo_ms)
    _check_slo("tpot_slo_ms", tpot_slo_ms)
    if isinstance(result, GenerationSummary):
        return _generation_report(
            result, result.total_requests, ttft_slo_ms, tpot_slo_ms, watch,
            ttfts=result.ttfts, tpots=result.tpots, lats=result.lats,
            wait_sum=result.wait_sum, req_tpots=result.req_tpots,
            outs=result.out_tokens,
            mean_queue_depth=result.mean_queue_depth(result.makespan_ms))
    recs = result.records
    t_arr = list(map(_T_ARRIVAL, recs))
    t_first = list(map(_T_FIRST_TOKEN, recs))
    t_done = list(map(_T_COMPLETE, recs))
    outs = list(map(_OUTPUT_TOKENS, recs))
    req_tpots = [(done - first) / (out - 1) if out > 1 else 0.0
                 for done, first, out in zip(t_done, t_first, outs)]
    return _generation_report(
        result, len(recs), ttft_slo_ms, tpot_slo_ms, watch,
        ttfts=list(map(sub, t_first, t_arr)),
        tpots=[t for t, out in zip(req_tpots, outs) if out > 1],
        lats=list(map(sub, t_done, t_arr)),
        wait_sum=sum(map(sub, map(_T_ADMIT, recs), t_arr)),
        req_tpots=req_tpots, outs=outs,
        mean_queue_depth=_time_weighted_mean(result.queue_samples,
                                             result.makespan_ms))


def _generation_report(
    run: Union[GenerationSimulationResult, GenerationSummary], n: int,
    ttft_slo_ms: Optional[float], tpot_slo_ms: Optional[float],
    watch: Optional[dict], *, ttfts: Sequence[float],
    tpots: Sequence[float], lats: Sequence[float], wait_sum: float,
    req_tpots: Sequence[float], outs: Sequence[int],
    mean_queue_depth: float,
) -> GenerationServingReport:
    """The report both :func:`summarize_generation` paths share.

    ``ttfts``/``req_tpots``/``outs`` are parallel per-request columns
    (``req_tpots`` holds 0.0 where ``outs`` is 1, never read there);
    ``tpots`` keeps only the multi-token requests' TPOTs.
    """
    horizon = run.makespan_ms
    horizon_s = horizon / 1e3 if horizon > 0 else math.nan
    slo_active = ttft_slo_ms is not None or tpot_slo_ms is not None
    good_count = 0
    good_tokens = 0
    if slo_active and n:
        for ttft, tpot, out in zip(ttfts, req_tpots, outs):
            if ttft_slo_ms is not None and ttft > ttft_slo_ms:
                continue
            if (tpot_slo_ms is not None and out > 1
                    and tpot > tpot_slo_ms):
                continue
            good_count += 1
            good_tokens += out

    p50_ttft, p95_ttft, p99_ttft = _tails(ttfts, 50, 95, 99)
    total_tokens = run.total_tokens
    busy = sum(i.busy_ms for i in run.instances)
    mean = lambda xs: sum(xs) / len(xs) if xs else math.nan  # noqa: E731
    return GenerationServingReport(
        total_requests=n,
        total_tokens=total_tokens,
        horizon_ms=horizon,
        throughput_rps=n / horizon_s if n else 0.0,
        tokens_per_s=total_tokens / horizon_s if n else 0.0,
        utilization=(busy / (run.n_instances * horizon)
                     if horizon > 0 else 0.0),
        mean_ttft_ms=mean(ttfts),
        p50_ttft_ms=p50_ttft,
        p95_ttft_ms=p95_ttft,
        p99_ttft_ms=p99_ttft,
        mean_tpot_ms=mean(tpots),
        p99_tpot_ms=_tails(tpots, 99)[0],
        mean_latency_ms=mean(lats),
        p99_latency_ms=_tails(lats, 99)[0],
        mean_wait_ms=wait_sum / n if n else math.nan,
        mean_queue_depth=mean_queue_depth,
        total_switches=run.total_switches,
        total_reprogram_time_ms=run.total_reprogram_time_ms,
        scheduler=run.scheduler,
        n_instances=run.n_instances,
        slots=run.slots,
        ttft_slo_ms=ttft_slo_ms,
        tpot_slo_ms=tpot_slo_ms,
        slo_attainment=(good_count / n if slo_active and n else None),
        goodput_tokens_per_s=(good_tokens / horizon_s
                              if slo_active and n else None),
        instances=list(run.instances),
        availability=run.availability,
        total_failures=run.total_failures,
        total_retries=run.total_retries,
        total_preemptions=run.total_preemptions,
        watch=watch,
    )


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of :func:`plan_capacity`."""

    instances: int
    #: Simulated report at ``instances`` (None for analytic-only plans,
    #: i.e. ``confirm=False`` — the estimate then lives in ``analytic``).
    report: Optional[ServingReport]
    target_p99_ms: float
    target_qps: Optional[float]
    #: Fleet sizes probed by confirming simulations: {n: achieved
    #: p99_ms} (empty for analytic-only plans).
    probes: Dict[int, float] = field(default_factory=dict)
    #: The closed-form proposal the search started from (None in
    #: ``mode="probe"``, the seed probe-from-1 search).
    analytic: Optional["FleetProposal"] = None

    @property
    def meets_slo(self) -> bool:
        if self.report is not None:
            return self.report.p99_ms <= self.target_p99_ms
        return self.analytic.estimate.p99_ms <= self.target_p99_ms


def plan_capacity(
    accel: ProTEA,
    requests: Sequence[Request],
    target_p99_ms: float,
    target_qps: Optional[float] = None,
    scheduler: str = "least-loaded",
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    max_instances: int = 256,
    failures=None,
    *,
    mode: str = "analytic",
    confirm: bool = True,
    probe_detail: str = "summary",
    shards: int = 1,
    shard_jobs: Optional[int] = None,
) -> CapacityPlan:
    """Minimum fleet size meeting the p99 SLO (and target throughput).

    Analytic-first (``mode="analytic"``, the default): the closed-form
    model of :mod:`repro.analytic` proposes a fleet size, a confirming
    simulation checks it, and a gallop + binary search around the
    proposal pins the minimum (queueing delay is monotone
    non-increasing in fleet size for these policies).  A good proposal
    costs 2-3 simulated probes instead of the ~2·log2(n) the seed
    search spends probing up from one instance — and the final answer
    is identical, because the same simulator issues the verdict either
    way.  ``mode="probe"`` keeps the seed search (exponential probing
    from 1, then binary search); ``confirm=False`` skips simulation
    entirely and returns the analytic proposal (``report=None``,
    estimate in ``plan.analytic``).

    Confirming probes run at ``probe_detail`` (``"summary"`` by
    default: exact for every statistic the planner reads, without
    materializing per-request records) and can be sharded across
    worker processes (``shards``/``shard_jobs``, summary detail only —
    see :meth:`ClusterSimulator.run_sharded`).

    Raises ``RuntimeError`` if even ``max_instances`` fails.

    ``failures`` (a :class:`~repro.sim.failures.FailurePlan`) plans
    capacity under fault injection — each instance's fault history is
    seeded per index, so probe fleets share fault draws and the search
    stays monotone in practice.
    """
    if not target_p99_ms > 0:  # NaN fails the comparison too
        raise ValueError(
            f"target_p99_ms must be positive, got {target_p99_ms}")
    if not requests:
        raise ValueError("cannot plan capacity for an empty workload")
    # A NaN or infinite target can never be met, so the search would
    # probe every fleet up to max_instances before giving up.
    if target_qps is not None and not 0 < target_qps < math.inf:
        raise ValueError(
            f"target_qps must be positive and finite, got {target_qps!r}")
    if (not isinstance(max_instances, int) or isinstance(max_instances, bool)
            or max_instances < 1):
        raise ValueError(
            "cannot plan capacity over an empty fleet: max_instances "
            f"must be an int >= 1, got {max_instances!r}")
    if mode not in ("analytic", "probe"):
        raise ValueError(f"unknown plan mode {mode!r}; "
                         "available: ['analytic', 'probe']")
    if probe_detail not in ("summary", "full"):
        raise ValueError(f"unknown probe detail {probe_detail!r}; "
                         "available: ['full', 'summary']")
    if not confirm and mode != "analytic":
        raise ValueError("confirm=False requires mode='analytic' "
                         "(an unconfirmed plan IS the analytic proposal)")
    if shards != 1 and probe_detail != "summary":
        raise ValueError("sharded probes require probe_detail='summary' "
                         "(per-request records cannot be sharded)")

    proposal = None
    if mode == "analytic":
        # Lazy: repro.analytic builds on the serving layer's service-
        # time model, so importing it at module scope would be a cycle.
        from ..analytic.capacity import propose_fleet

        proposal = propose_fleet(
            accel, requests, target_p99_ms, target_qps,
            batching=batching, models=models,
            reprogram_latency_ms=reprogram_latency_ms,
            max_instances=max_instances, failures=failures)
        if not confirm:
            return CapacityPlan(
                instances=proposal.instances,
                report=None,
                target_p99_ms=target_p99_ms,
                target_qps=target_qps,
                analytic=proposal,
            )

    probes: Dict[int, float] = {}
    reports: Dict[int, ServingReport] = {}
    verdicts: Dict[int, bool] = {}

    def meets(n: int) -> bool:
        if n in verdicts:
            return verdicts[n]
        # Every shard cell needs at least one instance, so probes below
        # the shard count degrade gracefully to one cell per instance.
        eff_shards = min(shards, n)
        result = simulate(accel, requests, n, scheduler=scheduler,
                          batching=batching, models=models,
                          reprogram_latency_ms=reprogram_latency_ms,
                          failures=failures, detail=probe_detail,
                          shards=eff_shards,
                          shard_jobs=shard_jobs if eff_shards > 1 else None)
        report = summarize(result, slo_ms=target_p99_ms)
        probes[n] = report.p99_ms
        reports[n] = report
        ok = report.p99_ms <= target_p99_ms
        if target_qps is not None:
            ok = ok and report.throughput_rps >= 0.95 * target_qps
        verdicts[n] = ok
        return ok

    def _infeasible_msg() -> str:
        # Name the criterion that actually failed: with a throughput
        # target, every probe may meet the latency SLO yet still fall
        # short of 0.95 * target_qps.
        best_p99 = min(probes.values())
        parts = []
        if best_p99 > target_p99_ms:
            parts.append(f"p99 <= {target_p99_ms} ms "
                         f"(best probe: {best_p99:.3f} ms)")
        if target_qps is not None:
            best_tput = max(r.throughput_rps for r in reports.values())
            if best_tput < 0.95 * target_qps:
                parts.append(f"throughput >= {0.95 * target_qps:.1f} req/s "
                             f"(best probe: {best_tput:.1f} req/s)")
        if not parts:  # each criterion met somewhere, never jointly
            parts.append(f"p99 <= {target_p99_ms} ms and "
                         f"throughput >= {0.95 * target_qps:.1f} req/s "
                         f"on the same probe")
        return (f"no fleet of <= {max_instances} instances meets "
                + " and ".join(parts))

    if mode == "probe":
        lo, hi = 0, 1  # lo: largest known-infeasible size
        while not meets(hi):
            lo = hi
            if hi >= max_instances:
                raise RuntimeError(_infeasible_msg())
            hi = min(2 * hi, max_instances)
    elif meets(proposal.instances):
        # Gallop down from the proposal with doubling steps until a
        # fleet misses (or the floor), establishing the bracket.
        hi, lo, step = proposal.instances, 0, 1
        while hi - step >= 1:
            cand = hi - step
            if meets(cand):
                hi = cand
                step *= 2
            else:
                lo = cand
                break
    else:
        # The analytic proposal was optimistic: gallop up until a
        # fleet meets (or max_instances proves infeasible).
        lo, step = proposal.instances, 1
        while True:
            if lo >= max_instances:
                raise RuntimeError(_infeasible_msg())
            cand = min(lo + step, max_instances)
            if meets(cand):
                hi = cand
                break
            lo = cand
            step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return CapacityPlan(
        instances=hi,
        report=reports[hi],
        target_p99_ms=target_p99_ms,
        target_qps=target_qps,
        probes=dict(sorted(probes.items())),
        analytic=proposal,
    )
