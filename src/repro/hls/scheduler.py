"""Analytical latency scheduler for loop nests.

Reproduces the cycle arithmetic Vitis HLS applies to the paper's
engines:

* **Pipelined loop** (``#pragma HLS pipeline II=k``): all nested loops
  are fully unrolled into one pipeline stage chain of depth ``D``;
  latency is ``D + (trip − 1)·k``.
* **Fully/partially unrolled loop**: iterations become parallel
  hardware; a reduction over ``n`` parallel products costs
  ``ceil(log2 n)`` adder-tree stages of depth.
* **Sequential loop** (no pragma, or ``pipeline off`` as on every outer
  row loop in Algorithms 1–4): latency is
  ``trip · (body_latency + overhead)``.

The scheduler is deliberately simple — these engines have static trip
counts and no data-dependent control, which is precisely why the paper
can report deterministic latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from .loopnest import Loop

__all__ = ["LoopSchedule", "schedule_loop"]


@dataclass
class LoopSchedule:
    """Latency result for one loop nest.

    Attributes
    ----------
    cycles:
        Total latency in clock cycles.
    depth:
        Pipeline depth of one iteration (cycles to first result).
    trip:
        Effective sequential iteration count at this level.
    detail:
        Per-subloop cycle breakdown (loop name → cycles), useful for
        the per-engine accounting printed by the experiments.
    """

    cycles: int
    depth: int
    trip: int
    detail: Dict[str, int] = field(default_factory=dict)


def _tree_depth(n: int) -> int:
    """Adder-tree stages to reduce ``n`` parallel partial products."""
    return 0 if n <= 1 else math.ceil(math.log2(n))


def _iteration_depth(loop: Loop) -> int:
    """Depth of one fully-unrolled iteration of ``loop``'s body.

    Statements chain sequentially; a nested loop contributes its own
    iteration depth plus the reduction tree over its (unrolled) trips.
    """
    depth = 0
    for stmt in loop.statements():
        depth += stmt.depth
    for sub in loop.subloops():
        inst = sub.trip if sub.unroll is None or sub.unroll.factor is None \
            else min(sub.unroll.factor, sub.trip)
        depth += _iteration_depth(sub) + _tree_depth(max(inst, 1))
    return max(depth, 1)


def schedule_loop(loop: Loop) -> LoopSchedule:
    """Compute the latency of one loop nest (see module docstring)."""
    if loop.trip == 0:
        return LoopSchedule(cycles=0, depth=0, trip=0)

    # --- pipelined: D + (trip-1)*II ------------------------------------
    if loop.pipeline is not None and not loop.pipeline.off:
        depth = _iteration_depth(loop)
        cycles = depth + (loop.trip - 1) * loop.pipeline.ii
        return LoopSchedule(cycles=cycles, depth=depth, trip=loop.trip)

    # --- fully unrolled: parallel copies + reduction tree ---------------
    if loop.unroll is not None and loop.unroll.factor is None:
        depth = _iteration_depth(loop) + _tree_depth(loop.trip)
        return LoopSchedule(cycles=depth, depth=depth, trip=1)

    # --- sequential (optionally partially unrolled) ----------------------
    factor = 1 if loop.unroll is None else max(1, loop.unroll.factor or 1)
    trip_eff = math.ceil(loop.trip / factor)
    body_cycles = 0
    detail: Dict[str, int] = {}
    for stmt in loop.statements():
        body_cycles += stmt.depth
    for sub in loop.subloops():
        sched = schedule_loop(sub)
        detail[sub.name] = sched.cycles
        body_cycles += sched.cycles
    cycles = trip_eff * (body_cycles + loop.overhead)
    return LoopSchedule(
        cycles=cycles,
        depth=body_cycles,
        trip=trip_eff,
        detail=detail,
    )


