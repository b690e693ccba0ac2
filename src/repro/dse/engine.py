"""The exploration engine: strategies x persistent workers x cache.

:func:`explore` drives a :class:`~repro.dse.strategies.Strategy` to
exhaustion, scoring each proposed batch through an evaluator callable —
serially, or on a :class:`~repro.dse.pool.PersistentPool` when
``jobs > 1``: worker processes forked **once per exploration** that
receive the evaluator and settings a single time at spawn and
thereafter exchange only compact point batches (``batch_size`` points
per dispatch, auto-sized from the axis cardinality by default).  An
optional content-keyed on-disk :class:`~repro.dse.cache.EvalCache` is
consulted first through an in-memory key index loaded once per sweep —
the parent process is the cache's **single writer**, workers never
touch the disk, and a cache miss costs a set lookup instead of a
failed read.

The engine is deliberately generic: an evaluator is any callable
``(point, settings) -> mapping of metrics`` (module-level and picklable
if ``jobs > 1``); objectives name the metrics that feed the Pareto
frontier.  :func:`repro.dse.objectives.evaluate_point` is the standard
ProTEA evaluator, but :func:`repro.analysis.sweep.grid_sweep` and the
experiment sweeps run arbitrary callables through this same engine.

Results are deterministic for a fixed (space, strategy, seed,
settings): batch order follows the strategy, within-batch order follows
the ask order regardless of worker interleaving or batch size, and
cached results are bit-identical to fresh ones.  ``jobs`` and
``batch_size`` change the wall clock and nothing else — the
parallel-identity suite (``tests/dse/test_parallel_identity.py``)
holds that promise byte for byte.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from .cache import EvalCache
from .pareto import Objective, pareto_front
from .pool import PersistentPool, _error_text
from .space import SearchSpace, point_id
from .strategies import PrescreenStrategy, Strategy, get_strategy

__all__ = ["EvalResult", "ExplorationResult", "auto_batch_size", "explore"]

#: An evaluator maps (point, settings) to a flat mapping of metrics.
Evaluator = Callable[[Dict[str, Any], Dict[str, Any]], Mapping[str, Any]]


@dataclass
class EvalResult:
    """One scored design point."""

    point: Dict[str, Any]
    objectives: Dict[str, float]
    metrics: Dict[str, Any]
    error: str = ""
    cached: bool = False

    @property
    def ok(self) -> bool:
        return not self.error

    def as_dict(self) -> dict:
        return {
            "point": dict(self.point),
            "objectives": _json_safe(self.objectives),
            "metrics": _json_safe(self.metrics),
            "error": self.error,
            "cached": self.cached,
        }


@dataclass
class ExplorationResult:
    """Everything one :func:`explore` call produced."""

    results: List[EvalResult]
    frontier: List[EvalResult]
    objectives: Tuple[Objective, ...]
    strategy: str
    jobs: int
    #: Points scored fresh this run (cache hits and repeats excluded).
    n_evaluated: int
    cache_hits: int
    cache_misses: int
    elapsed_s: float
    settings: Dict[str, Any] = field(default_factory=dict)
    #: :class:`repro.obs.DseProfile` when the sweep ran with
    #: ``profile=True`` (cache split, per-point wall time, per-worker
    #: dispatch/idle breakdown); ``None`` otherwise.
    profile: Optional[Any] = None
    #: Prescreen block (keep/min_keep knobs plus proposed/forwarded/
    #: screened_out counters) when the strategy prescreens; ``None``
    #: otherwise.
    prescreen: Optional[Dict[str, Any]] = None

    @property
    def ok_results(self) -> List[EvalResult]:
        return [r for r in self.results if r.ok]

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "jobs": self.jobs,
            "objectives": [
                {"name": o.name, "goal": o.goal, "units": o.units}
                for o in self.objectives
            ],
            "settings": _json_safe(self.settings),
            "evaluated": self.n_evaluated,
            "cache": {"hits": self.cache_hits, "misses": self.cache_misses},
            "elapsed_s": self.elapsed_s,
            "results": [r.as_dict() for r in self.results],
            "frontier": [r.as_dict() for r in self.frontier],
            **({"prescreen": _json_safe(self.prescreen)}
               if self.prescreen is not None else {}),
            **({"profile": _json_safe(self.profile.as_dict())}
               if self.profile is not None else {}),
        }


# ---------------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    """NaN/inf → None recursively (strict JSON parsers reject them)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _eval_task(task: Tuple[Evaluator, Dict[str, Any], Dict[str, Any], bool]):
    """Serial-path evaluation: score one point, capturing tolerated
    failures.

    Returns ``(point, metrics, error, (worker_name, wall_s))`` — the
    trailing element is profiling data (who evaluated the point, and
    how long the evaluator itself ran); it never feeds the scores, so
    profiled and unprofiled sweeps stay bit-identical.  The pool path
    runs the same evaluation discipline worker-side
    (:func:`repro.dse.pool._worker_main`).
    """
    evaluator, point, settings, continue_on_error = task
    t0 = time.perf_counter()
    try:
        metrics, error = dict(evaluator(point, settings)), ""
    except Exception as exc:  # noqa: BLE001 - DSE tolerates corners
        if not continue_on_error:
            raise
        metrics, error = {}, _error_text(exc)
    return point, metrics, error, (
        multiprocessing.current_process().name,
        time.perf_counter() - t0)


def _split_metrics(metrics: Mapping[str, Any],
                   objectives: Sequence[Objective]) -> Dict[str, float]:
    missing = [o.name for o in objectives if o.name not in metrics]
    if missing:
        raise KeyError(
            f"evaluator returned no value for objective(s) {missing}; "
            f"got metrics {sorted(metrics)}")
    return {o.name: float(metrics[o.name]) for o in objectives}


def _result_from_metrics(point: Dict[str, Any], metrics: Dict[str, Any],
                         error: str,
                         objectives: Sequence[Objective]) -> EvalResult:
    if error:
        return EvalResult(point=point, objectives={}, metrics={}, error=error)
    return EvalResult(point=point,
                      objectives=_split_metrics(metrics, objectives),
                      metrics=metrics, error="")


def auto_batch_size(n_tasks: int, jobs: int, space: SearchSpace) -> int:
    """Points per dispatch when the caller does not pin ``batch_size``.

    Targets ~4 dispatches per worker (enough granularity for dynamic
    load balancing without per-point round-trips), capped at the
    space's largest axis cardinality so one dispatch never swallows
    more than a full sweep of any single axis.
    """
    if n_tasks < 1 or jobs < 1:
        return 1
    target = -(-n_tasks // (4 * jobs))
    cap = max(len(axis) for axis in space.axes)
    return max(1, min(target, cap))


# ---------------------------------------------------------------------------
def explore(
    space: SearchSpace,
    evaluator: Evaluator,
    *,
    objectives: Sequence[Objective] = (),
    strategy: Union[str, Strategy] = "grid",
    strategy_options: Optional[Mapping[str, Any]] = None,
    settings: Optional[Mapping[str, Any]] = None,
    jobs: int = 1,
    batch_size: Optional[int] = None,
    cache: Optional[EvalCache] = None,
    continue_on_error: bool = True,
    profile: bool = False,
) -> ExplorationResult:
    """Explore ``space``, scoring points with ``evaluator``.

    ``jobs > 1`` evaluates on a :class:`~repro.dse.pool.PersistentPool`
    — worker processes forked once for the whole exploration that
    receive the evaluator and settings a single time and then stream
    compact point batches (``batch_size`` points per dispatch,
    :func:`auto_batch_size` by default).  The evaluator must then be a picklable module-level
    callable.  A worker that dies mid-batch fails only that batch's
    points (``worker died`` error records) and is replaced, so the
    sweep always completes.

    ``cache`` short-circuits points whose content key is already on
    disk — consulted through an in-memory index loaded once per sweep,
    written only by this (parent) process — and errors are cached too,
    since an infeasible corner is just as deterministic as a feasible
    one.

    With ``continue_on_error`` (the default) evaluator exceptions become
    per-point error records; otherwise the first failure propagates.

    ``profile=True`` attaches a :class:`repro.obs.DseProfile` to the
    result: eval-cache hits/misses, per-point evaluation wall time,
    per-dispatch batch sizes, and a per-worker dispatch/idle breakdown.
    Profiling reads wall clocks around evaluations only — scores are
    bit-identical either way.

    Results are a pure function of (space, strategy, seed, settings):
    ``jobs`` and ``batch_size`` change the wall clock and nothing else.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    profile_rec = None
    if profile:
        from ..obs.profile import DseProfile

        profile_rec = DseProfile()
    objectives = tuple(objectives)
    settings_dict = dict(settings or {})
    # Different evaluators may share one cache directory; fold the
    # evaluator's identity into the keyed settings so their records
    # never collide (stale metrics or missing objective keys).
    keyed_settings = dict(settings_dict)
    keyed_settings["__evaluator__"] = (
        f"{getattr(evaluator, '__module__', '?')}."
        f"{getattr(evaluator, '__qualname__', repr(evaluator))}")
    if isinstance(strategy, str):
        strategy = get_strategy(strategy, space, objectives=objectives,
                                settings=settings_dict,
                                **dict(strategy_options or {}))

    started = time.perf_counter()
    by_id: Dict[str, EvalResult] = {}
    ordered: List[EvalResult] = []
    n_evaluated = cache_hits = cache_misses = 0
    # Single-writer cache discipline: one directory scan up front, an
    # in-memory membership probe per point, and every write (ours
    # alone) appended to the index.  Misses never touch the disk.
    known_keys = cache.index() if cache is not None else set()

    pool: Optional[PersistentPool] = None
    completed = False
    try:
        while True:
            batch = strategy.ask()
            if not batch:
                break
            batch_ids = [point_id(p) for p in batch]

            todo: List[Tuple[str, Dict[str, Any], str]] = []
            queued: set = set()
            for pid, point in zip(batch_ids, batch):
                if pid in by_id or pid in queued:
                    continue
                if cache is not None:
                    key = cache.key_for(point, keyed_settings)
                    record = cache.get(key) if key in known_keys else None
                    if record is not None:
                        cache_hits += 1
                        # Re-derive the objective vector from the full
                        # cached metrics rather than trusting the
                        # stored subset: the cache key excludes the
                        # objective *selection*, so a resume may score
                        # the same points along different axes.
                        hit = _result_from_metrics(
                            dict(point), dict(record.get("metrics", {})),
                            str(record.get("error", "")), objectives)
                        hit.cached = True
                        by_id[pid] = hit
                        continue
                    cache_misses += 1
                else:
                    key = ""
                queued.add(pid)
                todo.append((pid, dict(point), key))

            if todo:
                t_dispatch = time.perf_counter()
                raw: List[Tuple[Dict[str, Any], Dict[str, Any], str,
                                Tuple[str, float]]] = []
                if jobs > 1 and len(todo) > 1:
                    if pool is None:
                        pool = PersistentPool(
                            evaluator, settings_dict, jobs=jobs,
                            continue_on_error=continue_on_error)
                    size = batch_size or auto_batch_size(
                        len(todo), jobs, space)
                    points = [point for _, point, _ in todo]
                    dispatches = [points[i:i + size]
                                  for i in range(0, len(points), size)]
                    replies = pool.map_batches(dispatches)
                    for sent, (worker, results) in zip(dispatches, replies):
                        if profile_rec is not None:
                            profile_rec.add_dispatch(worker, len(sent))
                        for point, (metrics, error, wall_s) in zip(sent,
                                                                   results):
                            raw.append((point, metrics, error,
                                        (worker, wall_s)))
                else:
                    for _, point, _ in todo:
                        raw.append(_eval_task((evaluator, point,
                                               settings_dict,
                                               continue_on_error)))
                    if profile_rec is not None:
                        profile_rec.add_dispatch(
                            multiprocessing.current_process().name,
                            len(todo))
                if profile_rec is not None:
                    profile_rec.add_batch(time.perf_counter() - t_dispatch)
                n_evaluated += len(raw)
                scored = {point_id(point): (point, metrics, error, prof)
                          for point, metrics, error, prof in raw}
                for pid, _, key in todo:
                    point, metrics, error, prof = scored[pid]
                    if profile_rec is not None:
                        profile_rec.add_point(point, prof[0], prof[1], error)
                    result = _result_from_metrics(point, metrics, error,
                                                  objectives)
                    by_id[pid] = result
                    if cache is not None:
                        # Store metrics verbatim (Python's json round-
                        # trips NaN/inf), so cached results stay bit-
                        # identical to fresh ones; _json_safe is only
                        # for strict external consumers in as_dict().
                        cache.put(key, {"metrics": result.metrics,
                                        "error": result.error})
                        known_keys.add(key)

            batch_results = []
            for pid in batch_ids:
                result = by_id[pid]
                batch_results.append(result)
                # A strategy may re-propose an identical point (or a grid
                # may hold duplicates): every occurrence appears in the
                # ordered results, but the frontier dedupes below.
                ordered.append(result)
            strategy.tell(batch_results)
        completed = True
    finally:
        if pool is not None:
            # Propagating an exception: kill the workers instead of
            # waiting for a graceful stop.
            pool.close(force=not completed)

    unique_ok = []
    seen_ids: set = set()
    for result in ordered:
        pid = point_id(result.point)
        if pid in seen_ids or not result.ok:
            continue
        seen_ids.add(pid)
        unique_ok.append(result)
    frontier = (pareto_front(unique_ok, objectives,
                             key=lambda r: r.objectives)
                if objectives else [])
    if profile_rec is not None:
        profile_rec.cache_hits = cache_hits
        profile_rec.cache_misses = cache_misses
    return ExplorationResult(
        results=ordered,
        frontier=frontier,
        objectives=objectives,
        strategy=strategy.name,
        jobs=jobs,
        n_evaluated=n_evaluated,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        elapsed_s=time.perf_counter() - started,
        settings=settings_dict,
        profile=profile_rec,
        prescreen=(strategy.summary()
                   if isinstance(strategy, PrescreenStrategy) else None),
    )
