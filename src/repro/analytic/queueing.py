"""Closed-form M/M/c queueing: wait probabilities and latency tails.

This module is the numerical core of :mod:`repro.analytic` — the
Erlang machinery behind the serving and generation estimates and the
DSE surrogate's p99 estimate.  Everything here is a pure function of
scalars, so the capacity planner can evaluate thousands of (fleet,
load) candidates for less than the cost of dispatching one simulated
batch.

The latency model is ``latency = service + wait`` with the wait drawn
from the M/M/c queueing-delay distribution::

    P(W > t) = Pw * exp(-(c*mu - lambda) * t)

where ``Pw`` is the Erlang-C wait probability.  Quantiles come in two
documented modes:

* **point** (default) — the unconditional quantile
  ``ln(Pw / tail) / (c*mu - lambda)``, floored at the conditional-wait
  quantile weighted by the wait mass.  The floor is the low-load
  bugfix: the raw unconditional quantile is *zero* whenever
  ``Pw <= tail``, which let the old estimate sit below the simulated
  p99 (a finite run's nearest-rank p99 picks a waiter as soon as the
  realized waiter fraction crosses 1%).
* **bracket** (``bracket=True``) — the conditional-on-wait quantile
  ``ln(1 / tail) / (c*mu - lambda)``: the tail of the wait *among
  requests that wait at all*, an upper bound of the unconditional
  quantile at every load.  This is the mode the analytic-vs-simulated
  bracketing tests lean on.

Point-mode waits are capped at the *fluid* wait ``rho * duration`` (a
queue observed for ``duration`` ms cannot delay its p99 request longer
than the backlog the horizon can accumulate), which keeps the estimate
continuous and monotone through the saturation boundary — the property
tests in ``tests/analytic`` hold both monotonicities:

* non-increasing in fleet size at fixed load, and
* non-decreasing in offered load at fixed fleet.
"""

from __future__ import annotations

import math

__all__ = ["erlang_c", "wait_quantile_ms", "latency_quantile_ms",
           "p99_estimate_ms", "min_stable_fleet"]


def _check_count(name: str, value) -> None:
    """Reject a fleet or slot count that is not an ``int >= 1``: NaN,
    2.5 and ``True`` included (the entry points' shared rule)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


def _check_rate(name: str, value: float) -> None:
    """Reject a rate that is not positive and finite (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(
            f"{name} must be positive and finite, got {value!r}")


def erlang_c(servers: int, erlangs: float) -> float:
    """P(wait) for an M/M/c queue offered ``erlangs`` of load.

    Computed through the numerically-stable Erlang-B recurrence
    (no factorials); ``erlangs >= servers`` returns 1.0 — saturated
    queues wait with certainty.
    """
    if servers < 1:
        raise ValueError(f"servers must be >= 1, got {servers}")
    if erlangs < 0:
        raise ValueError(f"offered load must be >= 0, got {erlangs}")
    if erlangs == 0:
        return 0.0
    if erlangs >= servers:
        return 1.0
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = erlangs * blocking / (k + erlangs * blocking)
    rho = erlangs / servers
    return blocking / (1.0 - rho * (1.0 - blocking))


def min_stable_fleet(erlangs: float) -> int:
    """Smallest fleet with spare capacity for ``erlangs`` of load."""
    if erlangs < 0:
        raise ValueError(f"offered load must be >= 0, got {erlangs}")
    return max(1, math.floor(erlangs) + 1)


def wait_quantile_ms(servers: int, erlangs: float, drain_per_ms: float,
                     q: float = 99.0, *, bracket: bool = False) -> float:
    """The ``q``-quantile of the M/M/c queueing delay, in ms.

    ``drain_per_ms`` is the spare service rate ``c*mu - lambda``;
    callers hold the saturation case (``drain <= 0``) themselves
    because only they know the workload horizon that bounds it.

    ``bracket=True`` returns the conditional-on-wait quantile (see the
    module docstring) — an upper bound of the point estimate.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if drain_per_ms <= 0:
        raise ValueError("wait_quantile_ms needs drain_per_ms > 0 "
                         "(saturated queues have no steady-state wait)")
    wait_probability = erlang_c(servers, erlangs)
    if wait_probability <= 0.0:
        return 0.0
    tail = (100.0 - q) / 100.0
    if tail <= 0.0:  # q == 100: the distribution is unbounded
        return math.inf
    conditional_ms = -math.log(tail) / drain_per_ms
    if bracket:
        return conditional_ms
    unconditional_ms = (math.log(wait_probability / tail) / drain_per_ms
                        if wait_probability > tail else 0.0)
    # Low-load floor: the conditional quantile scaled by the wait mass
    # keeps the estimate above bare service instead of collapsing to
    # zero the moment Pw crosses the tail threshold.
    return max(unconditional_ms, wait_probability * conditional_ms)


def latency_quantile_ms(service_ms: float, unit_inf_s: float, fleet: int,
                        qps: float, duration_ms: float,
                        q: float = 99.0, *, bracket: bool = False) -> float:
    """Closed-form latency quantile: service + M/M/c wait quantile.

    Saturated points (offered load at or beyond fleet capacity) get a
    deterministic penalty — ``service + duration`` in point mode (the
    queue grows for the whole workload horizon, ranking them behind
    every stable point without an undominatable infinity), and the
    fluid backlog-drain time ``duration * erlangs / fleet`` in bracket
    mode (which keeps growing with overload, as the real tail does).

    Point-mode waits are additionally capped at the fluid wait
    ``duration * erlangs / fleet`` so the estimate passes through the
    saturation boundary continuously and monotonically.
    """
    if fleet < 1:
        raise ValueError(f"fleet must be >= 1, got {fleet}")
    mu_per_ms = unit_inf_s / 1e3          # service rate per instance
    lam_per_ms = qps / 1e3                # offered arrival rate
    if mu_per_ms <= 0:
        return service_ms + duration_ms
    erlangs = lam_per_ms / mu_per_ms
    fluid_ms = duration_ms * erlangs / fleet
    if erlangs >= fleet:
        return service_ms + (fluid_ms if bracket else duration_ms)
    wait_ms = wait_quantile_ms(fleet, erlangs,
                               fleet * mu_per_ms - lam_per_ms, q,
                               bracket=bracket)
    if not bracket:
        wait_ms = min(wait_ms, fluid_ms)
    return service_ms + max(0.0, wait_ms)


def p99_estimate_ms(latency_ms: float, unit_inf_s: float, fleet: int,
                    qps: float, duration_ms: float,
                    *, bracket: bool = False) -> float:
    """The p99 tail estimate (the surrogate's ``p99_ms`` objective)."""
    return latency_quantile_ms(latency_ms, unit_inf_s, fleet, qps,
                               duration_ms, 99.0, bracket=bracket)
