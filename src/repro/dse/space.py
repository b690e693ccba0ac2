"""Declarative search spaces: named axes, grids, sampling, mutation.

A :class:`SearchSpace` is the *what* of a design-space exploration —
named axes with finite value lists — kept strictly separate from the
*how* (strategies in :mod:`.strategies`) and the *scoring* (evaluators
such as :func:`repro.dse.objectives.evaluate_point`).  Everything here is
deterministic: the grid enumerates in axis-declaration order (outer
axes first, exactly like nested loops), and all randomness flows
through a caller-supplied :class:`random.Random`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Any, Dict, Iterator, Mapping, Tuple

__all__ = ["Axis", "SearchSpace", "point_id"]


def point_id(point: Mapping[str, Any]) -> str:
    """Stable identity of one design point (axis values by name).

    Canonical JSON with sorted keys, so two dicts with the same
    contents — whatever their insertion order — collapse to one id.
    Non-JSON values fall back to ``repr``, which is stable for the
    value types axes realistically hold.
    """
    return json.dumps(dict(point), sort_keys=True, default=repr)


@dataclass(frozen=True)
class Axis:
    """One named dimension of the space and its candidate values."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.values))

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SearchSpace:
    """The full grid of the named axes.

    Infeasible corners (device fit, a tensor-parallel width that does
    not divide the head count) are the evaluator's to reject, where
    failures are recorded per point.
    """

    axes: Tuple[Axis, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("a search space needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names in {names}")

    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    @property
    def size(self) -> int:
        """Grid cardinality."""
        n = 1
        for a in self.axes:
            n *= len(a)
        return n

    def axis(self, name: str) -> Axis:
        for a in self.axes:
            if a.name == name:
                return a
        raise KeyError(f"no axis named {name!r}; have {list(self.names)}")

    # ------------------------------------------------------------------
    def grid(self) -> Iterator[Dict[str, Any]]:
        """Every point, first axis outermost (nested-loop order)."""
        for combo in product(*(a.values for a in self.axes)):
            yield dict(zip(self.names, combo))

    def sample(self, rng: Random) -> Dict[str, Any]:
        """One uniformly random point."""
        return {a.name: rng.choice(a.values) for a in self.axes}

    def mutate(self, point: Mapping[str, Any], rng: Random) -> Dict[str, Any]:
        """Flip one axis to a different value."""
        mutable = [a for a in self.axes if len(a) > 1]
        if not mutable:
            return dict(point)
        axis = rng.choice(mutable)
        alternatives = [v for v in axis.values if v != point[axis.name]]
        child = dict(point)
        child[axis.name] = rng.choice(alternatives)
        return child

    def crossover(self, a: Mapping[str, Any], b: Mapping[str, Any],
                  rng: Random) -> Dict[str, Any]:
        """Uniform crossover of two parents."""
        return {ax.name: (a if rng.random() < 0.5 else b)[ax.name]
                for ax in self.axes}
