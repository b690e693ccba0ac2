"""Loop-nest IR: the abstract form of one HLS compute engine.

An engine (QKV_CE, FFN1_CE, …) is a perfect or imperfect loop nest whose
leaves are :class:`Statement` operations (MACs, LUT lookups, adds).
:mod:`repro.hls.scheduler` walks this IR to produce cycle counts, and
:mod:`repro.hls.resources` to produce PE/DSP/LUT/FF counts — mirroring
what Vitis HLS reports for the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from .pragmas import Pipeline, Unroll

__all__ = ["Statement", "Loop", "Body", "walk_statements"]


@dataclass(frozen=True)
class Statement:
    """One primitive operation instantiated in hardware.

    Parameters
    ----------
    name:
        Operation label ('mac', 'exp_lut', …).
    depth:
        Pipeline depth in cycles of one instance (latency through the
        unit; a DSP48 MAC is typically 4 stages at 200 MHz+).
    dsps, luts, ffs:
        Resources of one instance.  Unrolling multiplies instances.
    """

    name: str
    depth: int = 4
    dsps: int = 0
    luts: int = 0
    ffs: int = 0

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("statement depth must be >= 1")
        if min(self.dsps, self.luts, self.ffs) < 0:
            raise ValueError("resources must be non-negative")


@dataclass
class Loop:
    """A counted loop with optional pipeline/unroll pragmas.

    ``body`` mixes nested :class:`Loop` objects and leaf
    :class:`Statement` objects, in program order.
    """

    name: str
    trip: int
    body: Sequence[Union["Loop", Statement]] = field(default_factory=list)
    pipeline: Optional[Pipeline] = None
    unroll: Optional[Unroll] = None
    #: cycles of loop-control overhead per sequential iteration (index
    #: increment + exit test); Vitis charges 1–2 cycles.
    overhead: int = 1

    def __post_init__(self) -> None:
        if self.trip < 0:
            raise ValueError(f"loop {self.name}: trip count must be >= 0")
        if self.pipeline and self.pipeline.off and self.unroll:
            raise ValueError(f"loop {self.name}: pipeline-off with unroll is meaningless")

    # ------------------------------------------------------------------
    def statements(self) -> List[Statement]:
        """Leaf statements in this loop's body (non-recursive)."""
        return [b for b in self.body if isinstance(b, Statement)]

    def subloops(self) -> List["Loop"]:
        """Nested loops in this loop's body (non-recursive)."""
        return [b for b in self.body if isinstance(b, Loop)]

    def validate(self) -> None:
        """Recursively sanity-check the nest."""
        for sub in self.subloops():
            sub.validate()


@dataclass
class Body:
    """A straight-line sequence of loops executed one after another.

    Models an engine whose function body contains several top-level
    loop nests (e.g. load loop, then compute loop).
    """

    name: str
    loops: Sequence[Loop] = field(default_factory=list)

    def validate(self) -> None:
        for lp in self.loops:
            lp.validate()


def walk_statements(loop: Loop, _factor: int = 1, _force_unroll: bool = False):
    """Yield ``(statement, instances)`` over the whole nest.

    ``instances`` is the number of parallel hardware copies of the
    statement implied by unroll pragmas on the enclosing loops.  A
    pipelined loop fully unrolls everything nested inside it —
    *transitively*: every descendant loop without an explicit (partial)
    unroll pragma contributes its full trip count.
    """
    factor = _factor
    if loop.unroll is not None:
        factor *= loop.unroll.instances(loop.trip)
    elif _force_unroll:
        # Implicit full unroll inside an enclosing pipelined loop.
        factor *= loop.trip
    for stmt in loop.statements():
        yield stmt, factor
    pipelined_here = loop.pipeline is not None and not loop.pipeline.off
    force = _force_unroll or pipelined_here
    for sub in loop.subloops():
        yield from walk_statements(sub, factor, force)
