"""Tile-load scheduling and load/compute overlap.

The paper: "The reported latency reflects the computation time,
accounting for the overlap of data loading and computation."  With
double buffering, tile ``i+1`` loads while tile ``i`` computes, so a
sequence of (load, compute) pairs costs::

    total = load₀ + Σᵢ max(loadᵢ₊₁, computeᵢ) + compute_last

Without a second buffer the phases serialize.  ProTEA's weight buffers
are single-buffered in the published design (BRAM is spent on width,
not depth), so the default pipeline degree is configurable per engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["TilePhase", "overlapped_cycles", "serialized_cycles", "OverlapReport"]


@dataclass(frozen=True)
class TilePhase:
    """Cost of one tile iteration: its load and its compute cycles."""

    load: int
    compute: int

    def __post_init__(self) -> None:
        if self.load < 0 or self.compute < 0:
            raise ValueError("cycles must be non-negative")


@dataclass(frozen=True)
class OverlapReport:
    """Totals for one tiled engine invocation sequence."""

    total: int
    load_only: int
    compute_only: int
    overlap_saved: int


def serialized_cycles(phases: Sequence[TilePhase]) -> OverlapReport:
    """Single-buffered: every load blocks its compute."""
    load = sum(p.load for p in phases)
    comp = sum(p.compute for p in phases)
    return OverlapReport(total=load + comp, load_only=load,
                         compute_only=comp, overlap_saved=0)


def overlapped_cycles(phases: Sequence[TilePhase]) -> OverlapReport:
    """Double-buffered: load of tile i+1 hides under compute of tile i."""
    if not phases:
        return OverlapReport(0, 0, 0, 0)
    load = sum(p.load for p in phases)
    comp = sum(p.compute for p in phases)
    total = phases[0].load
    for prev, nxt in zip(phases, phases[1:]):
        total += max(prev.compute, nxt.load)
    total += phases[-1].compute
    return OverlapReport(total=total, load_only=load, compute_only=comp,
                         overlap_saved=(load + comp) - total)
