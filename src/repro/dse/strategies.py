"""Exploration strategies: how points are proposed.

A strategy is an ask/tell loop the engine drives to exhaustion:

* :meth:`Strategy.ask` returns the next batch of design points to
  evaluate (an empty batch ends the exploration);
* :meth:`Strategy.tell` feeds the scored batch back, so adaptive
  strategies (evolutionary) can steer the next generation.

One-shot strategies (grid, random) propose everything in their first
``ask``.  All randomness is seeded — the same (space, seed) pair always
proposes the same points in the same order, which is what makes cached
re-runs hit on every single point.

:class:`PrescreenStrategy` is a *wrapper*: it drives any inner
strategy and, before each batch reaches the engine, scores the
candidates with a closed-form surrogate
(:func:`repro.dse.surrogate.surrogate_point` by default) and forwards
only the surviving fraction for full evaluation.  Survivor selection
keeps whole non-dominated fronts — never a slice of one — so a point
the surrogate ranks on the first front always survives, whatever the
keep fraction.  The selection is deterministic, so a prescreened
sweep is byte-identical across ``jobs`` and batch sizes like any
other strategy.
"""

from __future__ import annotations

import math
from random import Random
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from .._checks import check_count, is_count
from .pareto import Objective, non_dominated_sort
from .space import SearchSpace, point_id

__all__ = ["Strategy", "GridStrategy", "RandomStrategy",
           "EvolutionaryStrategy", "PrescreenStrategy", "STRATEGIES",
           "get_strategy"]


class Strategy:
    """Base ask/tell interface (subclasses set ``name``)."""

    name = "base"

    def ask(self) -> List[Dict[str, Any]]:  # pragma: no cover - interface
        raise NotImplementedError

    def tell(self, results: Sequence[Any]) -> None:
        """Receive the scored batch (default: ignore — non-adaptive)."""


class GridStrategy(Strategy):
    """Exhaustive cartesian grid, one batch, nested-loop order."""

    name = "grid"

    def __init__(self, space: SearchSpace, **_: Any) -> None:
        self._pending: Optional[List[Dict[str, Any]]] = None
        self.space = space

    def ask(self) -> List[Dict[str, Any]]:
        if self._pending is None:
            self._pending = list(self.space.grid())
            return self._pending
        return []


class RandomStrategy(Strategy):
    """Seeded random sample of ``samples`` *distinct* points."""

    name = "random"

    def __init__(self, space: SearchSpace, samples: int = 16,
                 seed: int = 0, **_: Any) -> None:
        check_count("samples", samples)
        self.space = space
        self.samples = min(samples, space.size)
        self.seed = seed
        self._asked = False

    def ask(self) -> List[Dict[str, Any]]:
        if self._asked:
            return []
        self._asked = True
        rng = Random(self.seed)
        points: List[Dict[str, Any]] = []
        seen = set()
        # Distinctness cap: a small space may not hold `samples` unique
        # points; give up after enough fruitless draws.
        budget = 64 * self.samples
        while len(points) < self.samples and budget:
            budget -= 1
            point = self.space.sample(rng)
            pid = point_id(point)
            if pid in seen:
                continue
            seen.add(pid)
            points.append(point)
        return points


class EvolutionaryStrategy(Strategy):
    """A simple seeded (mu + lambda) multi-objective evolutionary loop.

    Generation 0 is a random population; each ``tell`` ranks the scored
    archive by non-dominated sort, keeps the best half as parents, and
    breeds the next generation by uniform crossover plus per-child
    mutation.  Points never repeat across generations (already-seen
    children are replaced by fresh random samples), so every proposed
    point is new information.
    """

    name = "evolutionary"

    def __init__(self, space: SearchSpace,
                 objectives: Sequence[Objective] = (),
                 population: int = 8, generations: int = 4,
                 mutation: float = 0.5, seed: int = 0, **_: Any) -> None:
        if not is_count(population) or population < 2:
            raise ValueError(
                f"population must be an int >= 2, got {population!r}")
        check_count("generations", generations)
        if not objectives:
            raise ValueError(
                "the evolutionary strategy needs objectives to rank by")
        self.space = space
        self.objectives = tuple(objectives)
        self.population = population
        self.generations = generations
        self.mutation = mutation
        self._rng = Random(seed)
        self._generation = 0
        self._seen: set = set()
        self._archive: List[Any] = []  # ok EvalResults, all generations

    # ------------------------------------------------------------------
    def _fresh_random(self, out: List[Dict[str, Any]]) -> None:
        """Top ``out`` up to the population size with unseen samples."""
        budget = 64 * self.population
        while len(out) < self.population and budget:
            budget -= 1
            point = self.space.sample(self._rng)
            pid = point_id(point)
            if pid in self._seen:
                continue
            self._seen.add(pid)
            out.append(point)

    def ask(self) -> List[Dict[str, Any]]:
        if self._generation >= self.generations:
            return []
        self._generation += 1
        batch: List[Dict[str, Any]] = []
        parents = self._parents()
        if parents:
            budget = 64 * self.population
            while len(batch) < self.population and budget:
                budget -= 1
                a = self._rng.choice(parents)
                b = self._rng.choice(parents)
                child = self.space.crossover(a.point, b.point, self._rng)
                if self._rng.random() < self.mutation:
                    child = self.space.mutate(child, self._rng)
                pid = point_id(child)
                if pid in self._seen:
                    continue
                self._seen.add(pid)
                batch.append(child)
        self._fresh_random(batch)
        return batch

    def _parents(self) -> List[Any]:
        """Best half of the archive by Pareto rank (empty pre-gen-1)."""
        if not self._archive:
            return []
        fronts = non_dominated_sort(
            self._archive, self.objectives, key=lambda r: r.objectives)
        parents: List[Any] = []
        target = max(2, self.population // 2)
        for front in fronts:
            parents.extend(front)
            if len(parents) >= target:
                break
        return parents

    def tell(self, results: Sequence[Any]) -> None:
        self._archive.extend(r for r in results if r.ok)


class PrescreenStrategy(Strategy):
    """Surrogate-assisted search: cheap prescreen, full eval survivors.

    Wraps any inner strategy.  Each batch the inner strategy proposes
    is scored with a closed-form surrogate (``surrogate(point,
    settings) -> metrics``, defaulting to
    :func:`repro.dse.surrogate.surrogate_point`); the candidates are
    ranked by non-dominated sort over the objectives the surrogate can
    estimate, and **whole fronts** are kept until at least
    ``max(min_keep, ceil(keep * batch))`` points survive.  Only the
    survivors reach the engine's full evaluator.

    Conservatism rules (what the prescreen must never get wrong):

    * fronts are never split — a point on the surrogate's first front
      survives regardless of ``keep``;
    * a point the surrogate cannot score (it raises) is forwarded to
      the full evaluator unconditionally, so infeasible corners keep
      their authoritative error records;
    * batches of ``min_keep`` points or fewer skip the prescreen —
      screening a handful of points saves nothing;
    * if the surrogate estimates none of the ranked objectives (e.g. a
      purely failure-objective sweep), everything is forwarded and the
      prescreen degrades to a no-op.

    ``tell`` forwards the scored survivors to the inner strategy, so
    adaptive inners (evolutionary) breed from the surviving archive.
    """

    name = "prescreen"

    def __init__(self, space: SearchSpace,
                 objectives: Sequence[Objective] = (),
                 settings: Optional[Mapping[str, Any]] = None,
                 inner: Union[str, Strategy] = "grid",
                 keep: float = 0.35, min_keep: int = 4,
                 surrogate: Optional[Callable[..., Mapping[str, Any]]]
                 = None,
                 **inner_options: Any) -> None:
        if not objectives:
            raise ValueError(
                "the prescreen strategy needs objectives to rank by")
        if not 0.0 < keep <= 1.0:
            raise ValueError(f"keep must be in (0, 1], got {keep}")
        check_count("min_keep", min_keep)
        if isinstance(inner, str):
            inner = get_strategy(inner, space, objectives=objectives,
                                 settings=settings, **inner_options)
        if isinstance(inner, PrescreenStrategy):
            raise ValueError("prescreen strategies do not nest")
        if surrogate is None:
            from .surrogate import surrogate_point

            surrogate = surrogate_point
        self.space = space
        self.objectives = tuple(objectives)
        self.settings = dict(settings or {})
        self.inner = inner
        self.keep = keep
        self.min_keep = min_keep
        self.surrogate = surrogate
        self.name = f"prescreen+{inner.name}"
        #: Lifetime counters, strategy-side so they are identical for
        #: every ``jobs``/batch-size combination of the same sweep.
        self.stats: Dict[str, int] = {
            "proposed": 0, "forwarded": 0, "screened_out": 0,
            "surrogate_errors": 0}
        self._memo: Dict[str, Optional[Dict[str, float]]] = {}

    # ------------------------------------------------------------------
    def _estimate(self, point: Dict[str, Any]) -> Optional[Dict[str, float]]:
        """Surrogate metrics, memoized by point id; ``None`` on error."""
        pid = point_id(point)
        if pid in self._memo:
            return self._memo[pid]
        try:
            estimate = {str(k): float(v)
                        for k, v in self.surrogate(point,
                                                   self.settings).items()}
        except Exception:  # noqa: BLE001 - forward unscoreable points
            estimate = None
        self._memo[pid] = estimate
        return estimate

    def ask(self) -> List[Dict[str, Any]]:
        batch = self.inner.ask()
        if not batch:
            return batch
        self.stats["proposed"] += len(batch)
        if len(batch) <= self.min_keep:
            self.stats["forwarded"] += len(batch)
            return batch
        scored: List[Any] = []
        survivor_ids: set = set()
        for point in batch:
            estimate = self._estimate(point)
            if estimate is None:
                self.stats["surrogate_errors"] += 1
                survivor_ids.add(point_id(point))  # conservative forward
            else:
                scored.append((point, estimate))
        ranked = [o for o in self.objectives
                  if all(o.name in est for _, est in scored)]
        if not scored or not ranked:
            self.stats["forwarded"] += len(batch)
            return batch
        target = max(self.min_keep, math.ceil(self.keep * len(batch)))
        kept = 0
        for front in non_dominated_sort(scored, ranked,
                                        key=lambda item: item[1]):
            survivor_ids.update(point_id(p) for p, _ in front)
            kept += len(front)
            if kept >= target:
                break
        survivors = [p for p in batch if point_id(p) in survivor_ids]
        self.stats["forwarded"] += len(survivors)
        self.stats["screened_out"] += len(batch) - len(survivors)
        return survivors

    def tell(self, results: Sequence[Any]) -> None:
        self.inner.tell(results)

    def summary(self) -> Dict[str, Any]:
        """The prescreen block for reports: knobs plus counters."""
        return {"keep": self.keep, "min_keep": self.min_keep,
                "inner": self.inner.name, **self.stats}


STRATEGIES = {
    cls.name: cls
    for cls in (GridStrategy, RandomStrategy, EvolutionaryStrategy,
                PrescreenStrategy)
}


def get_strategy(name: str, space: SearchSpace,
                 objectives: Sequence[Objective] = (),
                 settings: Optional[Mapping[str, Any]] = None,
                 **options: Any) -> Strategy:
    """Instantiate a strategy by registry name.

    ``settings`` are the sweep's evaluation settings — only the
    prescreen strategy consumes them (its surrogate must score under
    the same workload the full evaluator will see); the others ignore
    them.
    """
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; available: "
            f"{sorted(STRATEGIES)}") from None
    if cls is EvolutionaryStrategy:
        return cls(space, objectives=objectives, **options)
    if cls is PrescreenStrategy:
        return cls(space, objectives=objectives, settings=settings,
                   **options)
    return cls(space, **options)
