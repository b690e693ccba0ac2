"""Failure/recovery injection for fleet simulations.

A :class:`FailurePlan` describes an MTBF/MTTR process per instance:
up-times are exponential with mean ``mtbf_ms``, repair times
exponential with mean ``mttr_ms``.  :class:`FailureInjector` turns the
plan into concrete draws from per-instance RNG streams
(``failure/<idx>``), so

* adding failure injection to a scenario does not perturb any other
  stochastic component (workload draws come from their own seeds), and
* each instance's fault history is independent of fleet size — probing
  fleet growth in ``plan_capacity`` replays instance 0's faults
  identically.

The engine owns the event mechanics (what a failure *does*: abort the
in-flight batch, requeue queued work, mark downtime); this module only
answers *when* faults and repairs happen.  Failures stop at
``horizon_ms`` (default: the last arrival) so a drain phase always
terminates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .rng import RngStreams

__all__ = ["FailurePlan", "FailureInjector"]


@dataclass(frozen=True)
class FailurePlan:
    """MTBF/MTTR fault process shared by every instance of a fleet."""

    #: Mean up-time between failures (exponential), per instance.
    mtbf_ms: float
    #: Mean repair duration (exponential); 0 means instant recovery.
    mttr_ms: float
    #: Root seed of the ``failure/<idx>`` RNG streams.
    seed: int = 0
    #: Stop injecting new failures after this time (None: last arrival).
    horizon_ms: Optional[float] = None

    def __post_init__(self) -> None:
        # Non-finite values would either inject nothing (NaN compares
        # false everywhere) or divide by zero inside expovariate (inf).
        if not (math.isfinite(self.mtbf_ms) and self.mtbf_ms > 0):
            raise ValueError(
                f"mtbf_ms must be positive and finite, got {self.mtbf_ms!r}")
        if not (math.isfinite(self.mttr_ms) and self.mttr_ms >= 0):
            raise ValueError(
                f"mttr_ms must be >= 0 and finite, got {self.mttr_ms!r}")
        if self.horizon_ms is not None and not (
                math.isfinite(self.horizon_ms) and self.horizon_ms >= 0):
            raise ValueError(
                "horizon_ms must be >= 0 and finite, got "
                f"{self.horizon_ms!r}")

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FailurePlan":
        """CLI form ``MTBF:MTTR`` in milliseconds (e.g. ``200:20``)."""
        mtbf_s, sep, mttr_s = text.partition(":")
        if not sep:
            raise ValueError(
                f"invalid failure spec {text!r} (expected MTBF:MTTR in ms)")
        try:
            mtbf, mttr = float(mtbf_s), float(mttr_s)
        except ValueError:
            raise ValueError(
                f"invalid failure spec {text!r} (expected MTBF:MTTR "
                "in ms)") from None
        return cls(mtbf_ms=mtbf, mttr_ms=mttr, seed=seed)


class FailureInjector:
    """Per-instance fault/repair time draws for one simulation run."""

    def __init__(self, plan: FailurePlan, horizon_ms: float) -> None:
        self.plan = plan
        self.horizon_ms = (plan.horizon_ms if plan.horizon_ms is not None
                           else horizon_ms)
        self._streams = RngStreams(plan.seed)

    def _rng(self, idx: int):
        return self._streams.stream(f"failure/{idx}")

    def next_failure_ms(self, idx: int, after_ms: float
                        ) -> Optional[float]:
        """Absolute time of instance ``idx``'s next fault after
        ``after_ms``, or ``None`` once the horizon has passed."""
        t = after_ms + self._rng(idx).expovariate(1.0 / self.plan.mtbf_ms)
        return t if t <= self.horizon_ms else None

    def repair_duration_ms(self, idx: int) -> float:
        """How long the repair beginning now takes."""
        if self.plan.mttr_ms == 0:
            return 0.0
        return self._rng(idx).expovariate(1.0 / self.plan.mttr_ms)
