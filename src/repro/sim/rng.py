"""Named, independent RNG streams derived from one root seed.

Every stochastic component of a simulation (today: failure injection,
one stream per instance) draws from its own ``random.Random`` stream,
derived deterministically from ``(root seed, stream name)``.  Two
properties follow:

* **Reproducibility** — the same root seed replays every stream
  identically, so whole-simulation traces are a pure function of their
  inputs.
* **Isolation** — adding a new consumer (or reordering draws inside
  one component) cannot perturb any other component's sequence, which
  is what keeps golden traces stable as scenarios grow.

Derivation uses ``random.Random(f"{seed}/{name}")``: CPython seeds
string inputs through SHA-512, which is stable across processes,
platforms, and Python versions (unlike ``hash()``, which is salted).
"""

from __future__ import annotations

import random
from typing import Dict

__all__ = ["RngStreams"]


class RngStreams:
    """A lazy registry of named ``random.Random`` streams."""

    __slots__ = ("seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The stream for ``name`` (created on first use, then cached).

        Call sites should use one stream per component instance — e.g.
        ``streams.stream(f"failure/{idx}")`` — so per-component draw
        counts stay independent.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(f"{self.seed}/{name}")
            self._streams[name] = rng
        return rng

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RngStreams(seed={self.seed}, "
                f"streams={sorted(self._streams)})")
