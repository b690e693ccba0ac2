"""Heterogeneous fleet descriptions and capability-aware dispatch.

A :class:`FleetSpec` is an ordered list of :class:`InstanceSpec`, one
per instance.  The homogeneous case (every instance identical, full
speed, serves everything) is the degenerate spec the legacy loops
already modeled; heterogeneity adds, per instance:

* ``speed``       — a service-rate multiplier (0.5 = half-speed device:
  every batch/step takes twice as long);
* ``models``      — an optional capability set: the dispatcher only
  routes a request to instances that can serve its model;
* ``reprogram_latency_ms`` — a per-instance workload-switch penalty
  overriding the cluster-wide default (faster or slower flash);
* ``slots``       — per-instance in-flight sequence capacity
  (generation mode only);
* ``target``      — an optional accelerator-like object (e.g. a
  :class:`~repro.parallel.group.PipelineGroup`) this instance prices
  service times through, letting one fleet mix single-FPGA replicas
  with multi-FPGA pipeline groups.

CLI grammar (``--heterogeneous``): comma-separated entries of
``SPEED[/SLOTS][xCOUNT][@MODEL[+MODEL..]]`` — e.g.
``1.0x2,0.5/16@model2-lhc-trigger`` is two full-speed generalists plus
one half-speed, 16-slot instance pinned to one model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

__all__ = ["InstanceSpec", "FleetSpec", "Dispatcher"]


@dataclass(frozen=True)
class InstanceSpec:
    """Static description of one instance in a (possibly mixed) fleet."""

    #: Service-rate multiplier; service times divide by this.
    speed: float = 1.0
    #: Capability set: model names this instance may serve (None = all).
    models: Optional[Tuple[str, ...]] = None
    #: Workload-switch penalty override (None = cluster default).
    reprogram_latency_ms: Optional[float] = None
    #: In-flight sequence capacity override (generation mode only).
    slots: Optional[int] = None
    #: Accelerator-like object pricing this instance's service times
    #: (None = the cluster's shared accelerator).
    target: Optional[object] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(
                f"instance speed must be positive and finite, got "
                f"{self.speed!r}")
        if self.models is not None and not self.models:
            raise ValueError(
                "capability set must name at least one model "
                "(use None for an unrestricted instance)")
        if self.reprogram_latency_ms is not None and not (
                math.isfinite(self.reprogram_latency_ms)
                and self.reprogram_latency_ms >= 0):
            raise ValueError(
                "reprogram_latency_ms must be >= 0 and finite, got "
                f"{self.reprogram_latency_ms!r}")
        if self.slots is not None and self.slots < 1:
            raise ValueError("slots must be >= 1")

    def can_serve(self, model: str) -> bool:
        return self.models is None or model in self.models


@dataclass(frozen=True)
class FleetSpec:
    """An ordered, immutable description of every instance."""

    specs: Tuple[InstanceSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ValueError("fleet must contain at least one instance")

    @property
    def n(self) -> int:
        return len(self.specs)

    @property
    def homogeneous(self) -> bool:
        """True when every instance is the all-default spec — the case
        that must stay bit-identical to the legacy loops."""
        return all(s == InstanceSpec() for s in self.specs)

    @classmethod
    def uniform(cls, n: int, spec: Optional[InstanceSpec] = None
                ) -> "FleetSpec":
        if n < 1:
            raise ValueError("need at least one instance")
        return cls(tuple([spec or InstanceSpec()] * n))

    @classmethod
    def parse(cls, text: str) -> "FleetSpec":
        """Parse the ``--heterogeneous`` CLI grammar (see module doc)."""
        specs: List[InstanceSpec] = []
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            body, _, caps = entry.partition("@")
            models = tuple(m for m in caps.split("+") if m) if caps else None
            body, _, count_s = body.partition("x")
            speed_s, slots_sep, slots_s = body.partition("/")
            try:
                if slots_sep and not slots_s:
                    raise ValueError("empty slots")
                speed = float(speed_s)
                slots = int(slots_s) if slots_s else None
                count = int(count_s) if count_s else 1
            except ValueError:
                raise ValueError(
                    f"invalid fleet entry {entry!r} (expected "
                    "SPEED[/SLOTS][xCOUNT][@MODEL[+MODEL..]])") from None
            if count < 1:
                raise ValueError(f"fleet entry {entry!r}: count must be >= 1")
            spec = InstanceSpec(speed=speed, models=models, slots=slots)
            specs.extend([spec] * count)
        if not specs:
            raise ValueError(f"fleet spec {text!r} describes no instances")
        return cls(tuple(specs))

    def describe(self) -> str:
        """Compact one-line rendering (reports, error messages)."""
        parts = []
        for s in self.specs:
            bit = f"{s.speed:g}"
            if s.slots is not None:
                bit += f"/{s.slots}"
            if s.models is not None:
                bit += "@" + "+".join(s.models)
            parts.append(bit)
        return ",".join(parts)


class Dispatcher:
    """Routes an arriving request to an instance.

    Wraps a :class:`~repro.serving.scheduler.Scheduler` with the two
    concerns the scenario layer adds on top of plain policies:

    * **capability filtering** — only instances whose spec can serve
      the request's model are candidates (cached per model name);
    * **health filtering** — instances currently down are skipped;
      when *no* capable instance is up, :meth:`pick` returns ``None``
      and the engine parks the request in its pending buffer.

    Subclasses implement :meth:`_pick_fast` with an engine-specific
    inlined backlog computation for the built-in policies; anything
    else falls back to ``scheduler.pick`` (same Protocol the legacy
    loops used, so custom schedulers keep working).
    """

    def __init__(self, scheduler, instances: Sequence) -> None:
        self.scheduler = scheduler
        self.instances = list(instances)
        self.down_count = 0
        #: True when any instance carries a capability set.
        self.restricted = any(
            inst.spec.models is not None for inst in self.instances)
        self._eligible_cache = {}

    def eligible(self, model: str) -> List:
        """Instances whose capability set admits ``model`` (cached)."""
        if not self.restricted:
            return self.instances
        cached = self._eligible_cache.get(model)
        if cached is None:
            cached = [i for i in self.instances if i.spec.can_serve(model)]
            if not cached:
                raise ValueError(
                    f"no instance in the fleet can serve model {model!r}")
            self._eligible_cache[model] = cached
        return cached

    def pick(self, request, now_ms: float):
        """The chosen instance, or ``None`` if every candidate is down."""
        candidates = self.eligible(request.model)
        if self.down_count:
            candidates = [i for i in candidates if not i.down]
            if not candidates:
                return None
        return self._pick_fast(candidates, request, now_ms)

    def _pick_fast(self, candidates, request, now_ms: float):
        return self.scheduler.pick(candidates, request, now_ms)
