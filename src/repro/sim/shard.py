"""Sharded simulation: a partitioned fleet runs as independent cells.

A single event loop over a large fleet is serial by construction — the
event queue pops one event at a time no matter how many instances
exist.  Sharding breaks the fleet into *cells* that share nothing: each
cell owns a contiguous slice of the :class:`~repro.sim.fleet.FleetSpec`
and a deterministic stripe of the request stream, so cells can run in
separate processes (reusing the DSE layer's
:class:`~repro.dse.pool.PersistentPool`) and their summary reports
merge exactly:

* latency/TTFT/TPOT **multisets** concatenate, so every percentile of
  the merged report is the true order statistic over all cells;
* sums (waits, tokens, batch sizes) add; makespan is the max;
* the queue-depth step integrals add — the integral of a sum of step
  functions is the sum of the integrals — after closing every cell at
  the common last change point, so ``mean_queue_depth`` is exact;
* instance stats concatenate already carrying *global* indices: each
  cell's engine is constructed with ``instance_base`` set to its first
  global instance index, which re-bases every observer event,
  record, and stat the cell emits.

Determinism contract
--------------------
Cell identity is the **global index of its first instance**, never the
cell's ordinal position.  Failure streams are ``failure/<global idx>``
because ``instance_base`` offsets ``_Inst.idx``, so re-partitioning a
fleet (2 shards → 4 shards) renumbers nothing: every instance keeps its
exact fault history, and no cell can ever draw from a sibling's stream
(the key sets are disjoint by construction).
The failure horizon is the *global* last arrival, passed to every cell,
so injection stops at the same simulated time it would unsharded.

Scope: ``shards=1`` never reaches this module (the façades short-
circuit to the ordinary engine — byte-identical by construction, the
golden acceptance property).  ``shards>1`` is summary-detail only:
per-request records across processes would re-create the object churn
the summary path exists to avoid.  Observers are supported on the
in-process serial path (``jobs=None``/``1``) — each cell replays its
own timeline into the observer with globally-indexed rows — but cannot
cross process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .._checks import is_count
from .fleet import FleetSpec
from .summary import GenerationSummary, ServeSummary

__all__ = ["ShardPlan", "run_sharded", "merge_serve_summaries",
           "merge_generation_summaries"]


@dataclass(frozen=True)
class ShardPlan:
    """How one fleet and its workload split into independent cells."""

    shards: int
    #: Per-cell ``[lo, hi)`` global instance index ranges (contiguous,
    #: ascending, covering ``range(fleet.n)`` exactly).
    bounds: Tuple[Tuple[int, int], ...]

    @classmethod
    def partition(cls, fleet: FleetSpec, shards: int) -> "ShardPlan":
        """Split ``fleet`` into ``shards`` contiguous, near-even cells.

        Cell ``c`` takes indices ``[c*n//shards, (c+1)*n//shards)`` —
        sizes differ by at most one, earlier cells take the extras.
        """
        if not is_count(shards):
            raise ValueError(f"shards must be >= 1 (an int), got {shards!r}")
        n = fleet.n
        if shards > n:
            raise ValueError(
                f"cannot shard {n} instance(s) into {shards} cells — "
                "every cell needs at least one instance")
        bounds = tuple((c * n // shards, (c + 1) * n // shards)
                       for c in range(shards))
        return cls(shards=shards, bounds=bounds)

    def cell_fleets(self, fleet: FleetSpec) -> List[FleetSpec]:
        """The per-cell sub-fleets, in cell order."""
        return [FleetSpec(fleet.specs[lo:hi]) for lo, hi in self.bounds]

    def split_requests(self, requests: Sequence) -> List[list]:
        """Stripe the stream round-robin by input position.

        Input order is the engines' same-timestamp tie-break, so the
        stripe is a pure function of the workload — no hashing, no RNG
        — and balances cells to within one request.
        """
        cells: List[list] = [[] for _ in range(self.shards)]
        for i, req in enumerate(requests):
            cells[i % self.shards].append(req)
        return cells


# ----------------------------------------------------------------------
# Summary merging
# ----------------------------------------------------------------------

def _merge_depth(cells: Sequence) -> Tuple[float, float, int]:
    """Merge per-cell queue-depth step integrals.

    Close every cell's integral at the common last change point first
    (its depth holds constant past its own last event), then add — the
    merged triple closes against any horizon exactly like a single
    run's would.
    """
    last_t = max(c.depth_last_t for c in cells)
    area = 0.0
    last = 0
    for c in cells:
        area += c.depth_area + c.depth_last * (last_t - c.depth_last_t)
        last += c.depth_last
    return area, last_t, last


def _merged_availability(cells: Sequence, n_instances: int,
                         makespan_ms: float) -> Optional[float]:
    """Fleet availability over the merged horizon.

    Recomputed from per-instance downtime rather than averaging cell
    availabilities: cells close their horizons at different times, so
    only the raw downtimes merge exactly.
    """
    if all(c.availability is None for c in cells):
        return None
    downtime = sum(i.downtime_ms for c in cells for i in c.instances)
    horizon = max(makespan_ms, 1e-9)
    return 1.0 - downtime / (n_instances * horizon)


def merge_serve_summaries(cells: Sequence[ServeSummary]) -> ServeSummary:
    """Combine per-cell serve summaries into one fleet-wide summary."""
    if not cells:
        raise ValueError("nothing to merge: no cell summaries")
    head = cells[0]
    model_lats: Dict[str, List[float]] = {}
    model_wait: Dict[str, float] = {}
    model_bsq: Dict[str, int] = {}
    for c in cells:
        for m, lats in c.model_lats.items():
            model_lats.setdefault(m, []).extend(lats)
        for m, v in c.model_wait_sum.items():
            model_wait[m] = model_wait.get(m, 0.0) + v
        for m, v in c.model_batch_sq.items():
            model_bsq[m] = model_bsq.get(m, 0) + v
    area, last_t, last = _merge_depth(cells)
    makespan = max(c.makespan_ms for c in cells)
    n_instances = sum(c.n_instances for c in cells)
    failing = any(c.availability is not None for c in cells)
    touched: Optional[List[float]] = None
    if failing:
        touched = []
        for c in cells:
            touched.extend(c.touched_lats or ())
    return ServeSummary(
        total_requests=sum(c.total_requests for c in cells),
        makespan_ms=makespan,
        n_instances=n_instances,
        scheduler=head.scheduler,
        batching=head.batching,
        model_lats=model_lats,
        model_wait_sum=model_wait,
        model_batch_sq=model_bsq,
        instances=sorted((i for c in cells for i in c.instances),
                         key=lambda s: s.index),
        depth_area=area,
        depth_last_t=last_t,
        depth_last=last,
        # Cells never observe each other, so this is the deepest any
        # single cell got — a lower bound on the coincident fleet-wide
        # maximum (the mean, by contrast, merges exactly).
        max_queue_depth=max(c.max_queue_depth for c in cells),
        availability=_merged_availability(cells, n_instances, makespan),
        total_failures=sum(c.total_failures for c in cells),
        total_retries=sum(c.total_retries for c in cells),
        degraded_count=(sum(c.degraded_count or 0 for c in cells)
                        if failing else None),
        touched_lats=touched,
    )


def merge_generation_summaries(
        cells: Sequence[GenerationSummary]) -> GenerationSummary:
    """Combine per-cell generation summaries into one fleet summary."""
    if not cells:
        raise ValueError("nothing to merge: no cell summaries")
    head = cells[0]
    out = GenerationSummary(
        total_requests=sum(c.total_requests for c in cells),
        total_tokens=sum(c.total_tokens for c in cells),
        makespan_ms=max(c.makespan_ms for c in cells),
        n_instances=sum(c.n_instances for c in cells),
        slots=head.slots,
        scheduler=head.scheduler,
        total_failures=sum(c.total_failures for c in cells),
        total_retries=sum(c.total_retries for c in cells),
        total_preemptions=sum(c.total_preemptions for c in cells),
    )
    for c in cells:
        out.ttfts.extend(c.ttfts)
        out.tpots.extend(c.tpots)
        out.lats.extend(c.lats)
        out.out_tokens.extend(c.out_tokens)
        out.req_tpots.extend(c.req_tpots)
        out.wait_sum += c.wait_sum
    out.instances = sorted((i for c in cells for i in c.instances),
                           key=lambda s: s.index)
    out.depth_area, out.depth_last_t, out.depth_last = _merge_depth(cells)
    out.availability = _merged_availability(
        cells, out.n_instances, out.makespan_ms)
    return out


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _evaluate_cell(point: Dict[str, Any],
                   settings: Dict[str, Any]) -> Dict[str, Any]:
    """PersistentPool evaluator: run one cell, return its summary.

    Module-level and driven entirely by ``(point, settings)`` so the
    pool can ship it to a forked worker once; the serial path calls it
    directly with the same arguments.
    """
    sim = settings["sim"]
    plan: ShardPlan = settings["plan"]
    cell = point["cell"]
    lo, _hi = plan.bounds[cell]
    summary = sim._shard_cell(
        fleet=settings["fleets"][cell],
        instance_base=lo,
        requests=point["requests"],
        failure_horizon_ms=settings["horizon"],
        observer=point.get("observer"),
    )
    return {"summary": summary}


def run_sharded(sim, requests: Sequence, *, shards: int,
                jobs: Optional[int] = None, observer=None):
    """Partition, run every cell, and merge the summaries.

    ``sim`` is a serving façade exposing ``_shard_cell`` and ``_merge``
    (either :class:`~repro.serving.cluster.ClusterSimulator` or
    :class:`~repro.serving.generation.GenerationClusterSimulator`) —
    the façade, not this module, knows how to build a cell engine and
    which summaries its cells return.
    ``jobs >= 2`` forks a :class:`~repro.dse.pool.PersistentPool` and
    runs cells in worker processes; anything else runs them serially
    in-process (observers are only legal there).  ``shards`` and
    ``jobs`` arrive checked by the façade's ``run``.
    """
    plan = ShardPlan.partition(sim.fleet, shards)
    cell_requests = plan.split_requests(requests)
    settings = {
        "sim": sim,
        "plan": plan,
        "fleets": plan.cell_fleets(sim.fleet),
        # Global last arrival: every cell stops injecting failures at
        # the same simulated time the unsharded run would.
        "horizon": max((r.t_ms for r in requests), default=0.0),
    }
    parallel = jobs is not None and jobs >= 2
    if observer is not None and parallel:
        raise ValueError(
            "observers cannot cross shard processes — run with "
            "shard_jobs=None (serial cells) to observe a sharded run")
    points = [{"cell": c, "requests": cell_requests[c]}
              for c in range(shards)]
    if parallel:
        from ..dse.pool import PersistentPool

        with PersistentPool(_evaluate_cell, settings,
                            jobs=min(jobs, shards),
                            continue_on_error=False) as pool:
            batches = pool.map_batches([[p] for p in points])
        summaries = []
        for label, results in batches:
            metrics, error, _wall = results[0]
            if error:  # pragma: no cover - worker death is not scripted
                raise RuntimeError(f"shard cell failed in {label}: {error}")
            summaries.append(metrics["summary"])
    else:
        if observer is not None:
            for p in points:
                p["observer"] = observer
        summaries = [_evaluate_cell(p, settings)["summary"]
                     for p in points]
    return sim._merge(summaries)
