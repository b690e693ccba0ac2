"""Fluid approximations of arrival envelopes.

M/M/c queueing (:mod:`repro.analytic.queueing`) models the *stochastic*
component of waiting — Poisson clumping around a constant mean rate.
The bursty and diurnal workloads the simulator generates are not
constant-rate: an MMPP burst or a diurnal peak offers several times the
mean rate for a sustained window, and during that window the queue
behaves like a *deterministic fluid* — work arrives faster than the
fleet drains it, backlog accumulates, and every request rides on top of
the backlog in front of it.

This module computes that fluid component directly from the concrete
arrival times (the planner replays a fixed seeded workload, so the
envelope is data, not a distribution): :func:`fluid_waits_ms` walks the
arrivals once, charging each request ``work_ms`` of service and
draining ``drain_per_ms`` work-milliseconds per millisecond (fleet
size, derated by availability).  The resulting per-request wait profile
is what the closed-form latency estimates combine with the M/M/c tail —
the stochastic and fluid components each dominate where the other is
blind.

:class:`ArrivalEnvelope` is the scalar summary (mean/peak rate over a
sliding window) that the serving estimate's peak-rate term reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["ArrivalEnvelope", "fluid_waits_ms"]


@dataclass(frozen=True)
class ArrivalEnvelope:
    """Scalar rate envelope of one concrete arrival sequence."""

    n_requests: int
    #: Observation horizon: the last arrival time (or the explicit
    #: workload duration when the caller knows it).
    duration_ms: float
    mean_qps: float
    #: Peak windowed rate — the fluid model's "how bad does it get".
    peak_qps: float
    #: Width of the peak-rate window.
    window_ms: float

    @classmethod
    def from_times(cls, times_ms: Sequence[float],
                   duration_ms: float = None,
                   window_ms: float = 50.0) -> "ArrivalEnvelope":
        """Summarize sorted arrival times into a rate envelope."""
        if not times_ms:
            raise ValueError("cannot build an envelope of zero arrivals")
        if window_ms <= 0:
            raise ValueError("window_ms must be positive")
        horizon = float(duration_ms if duration_ms is not None
                        else times_ms[-1])
        horizon = max(horizon, times_ms[-1], window_ms)
        n_bins = max(1, math.ceil(horizon / window_ms))
        counts = [0] * n_bins
        for t in times_ms:
            counts[min(n_bins - 1, int(t // window_ms))] += 1
        peak = max(counts) / (window_ms / 1e3)
        mean = len(times_ms) / (horizon / 1e3)
        return cls(n_requests=len(times_ms), duration_ms=horizon,
                   mean_qps=mean, peak_qps=max(peak, mean),
                   window_ms=window_ms)


def fluid_waits_ms(times_ms: Sequence[float], work_ms: float,
                   drain_per_ms: float) -> Tuple[List[float], float]:
    """Per-request waits of the deterministic fluid queue.

    Each arrival deposits ``work_ms`` work-milliseconds; the pool
    drains ``drain_per_ms`` of work per millisecond of wall clock (a
    fleet of ``c`` always-up instances drains ``c``).  A request's
    fluid wait is the drain time of the backlog standing when it
    arrives, *including its own work* — deliberately conservative, the
    upper-bracket estimates lean on it.

    Returns ``(waits, end_backlog_ms)``; ``end_backlog_ms`` is the
    undrained work after the final arrival, whose drain time bounds how
    far the makespan can stretch past the last arrival.
    """
    if drain_per_ms <= 0:
        raise ValueError("drain_per_ms must be positive")
    if work_ms < 0:
        raise ValueError("work_ms must be >= 0")
    waits: List[float] = []
    backlog = 0.0
    prev_t = 0.0
    for t in times_ms:
        backlog = max(0.0, backlog - (t - prev_t) * drain_per_ms) + work_ms
        prev_t = t
        waits.append(backlog / drain_per_ms)
    return waits, backlog
