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

from .._checks import check_count

__all__ = ["erlang_c", "wait_quantile_ms", "p99_estimate_ms"]


def erlang_c(servers: int, erlangs: float) -> float:
    """P(wait) for an M/M/c queue offered ``erlangs`` of load.

    Computed through the numerically-stable Erlang-B recurrence
    (no factorials); ``erlangs >= servers`` returns 1.0 — saturated
    queues wait with certainty.
    """
    check_count("servers", servers)
    if not erlangs >= 0:  # NaN fails; +inf saturates below
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
    if not drain_per_ms > 0:
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


def p99_estimate_ms(latency_ms: float, unit_inf_s: float, fleet: int,
                    qps: float, duration_ms: float) -> float:
    """Closed-form p99 latency, service + the point-mode M/M/c p99
    wait (the surrogate's ``p99_ms`` objective).

    Saturated points (offered load at or beyond fleet capacity) get the
    deterministic penalty ``latency + duration``: the queue grows for
    the whole workload horizon, which ranks them behind every stable
    point without an undominatable infinity.  Waits are capped at the
    fluid wait ``duration * erlangs / fleet`` so the estimate passes
    through the saturation boundary continuously and monotonically.
    """
    check_count("fleet", fleet)
    mu_per_ms = unit_inf_s / 1e3          # service rate per instance
    lam_per_ms = qps / 1e3                # offered arrival rate
    if mu_per_ms <= 0:
        return latency_ms + duration_ms
    erlangs = lam_per_ms / mu_per_ms
    if erlangs >= fleet:
        return latency_ms + duration_ms
    wait_ms = wait_quantile_ms(fleet, erlangs,
                               fleet * mu_per_ms - lam_per_ms)
    return latency_ms + max(0.0, min(wait_ms, duration_ms * erlangs / fleet))
