"""Unified event-driven simulation kernel and its scenario layer.

Every discrete-event simulator in the repo runs on this package:

* :mod:`.kernel` — the deterministic event queue (:class:`EventQueue`,
  a binary heap), simulated time, and the merged arrival drain;
* :mod:`.rng` — named per-component RNG streams derived from one root
  seed (failure injection draws one per instance);
* :mod:`.fleet` — heterogeneous fleet specs (per-instance speed,
  capability sets, switch penalties, slots, pricing targets), the
  capability/health-aware :class:`Dispatcher`, and the fleet substrate
  both engines run on (instance state, fault recovery, parking, sinks,
  availability);
* :mod:`.failures` — MTBF/MTTR failure plans and the per-instance
  fault/repair draws;
* :mod:`.shard` — partitions a fleet into independent cells that run
  in parallel processes and merge their summary reports exactly;
* :mod:`.serve` / :mod:`.generate` — the engines behind
  :class:`~repro.serving.cluster.ClusterSimulator` and
  :class:`~repro.serving.generation.GenerationClusterSimulator`,
  pinned bit for bit on seeded scenarios by the goldens in
  ``tests/goldens/``.

The determinism contract is documented in :mod:`.kernel`: equal inputs
produce byte-identical event streams, records, and rendered reports.
"""

from .failures import FailureInjector, FailurePlan
from .fleet import Dispatcher, FleetSpec, InstanceSpec
from .kernel import EventQueue, Simulation
from .rng import RngStreams
from .shard import ShardPlan
from .summary import GenerationSummary, ServeSummary

__all__ = [
    "EventQueue",
    "Simulation",
    "RngStreams",
    "Dispatcher",
    "FleetSpec",
    "InstanceSpec",
    "FailurePlan",
    "FailureInjector",
    "ShardPlan",
    "ServeSummary",
    "GenerationSummary",
]
