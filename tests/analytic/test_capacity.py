"""Analytic-first ``plan_capacity``: frozen answers, direct checks.

Three contracts pin the planner:

* on the golden scenarios it returns the plan frozen in
  ``tests/goldens/capacity_plans.json``, and a direct simulation one
  instance below it misses the SLO.  The file was written while the
  seed probe-from-1 search still ran next to the analytic-first one and
  agreed with it on every case, so it carries that search's check
  forward as data (the answer only, not the probe sequence);
* its summary-detail probe report is an identity with ``summarize`` of
  a full-detail run at the plan size (exact percentiles, ulp-level
  means);
* :func:`propose_fleet`'s binary search equals a linear scan of its
  own predicate.
"""

import math

import pytest

from repro.analytic import estimate_serving, propose_fleet
from repro.serving import (plan_capacity, render_capacity_plan, simulate,
                           summarize, timeout)

from .._goldens import load
from ..sim.test_trace_identity import GEN_SCENARIOS
from ..sim.test_trace_identity import SCENARIOS as SERVE_SCENARIOS

TARGETS = (75.0, 300.0)


def _generated(arrivals, horizon_ms):
    return lambda: arrivals().generate(horizon_ms)


#: The six trace-identity scenarios over their golden horizons.
SCENARIOS = {
    **{s: _generated(a, 600.0) for s, a in SERVE_SCENARIOS.items()},
    **{f"g-{s}": _generated(a, 500.0) for s, a in GEN_SCENARIOS.items()},
}

PLAN_KW = dict(scheduler="model-affinity", batching=timeout(4, 2.0),
               reprogram_latency_ms=5.0)


@pytest.fixture(scope="module")
def frozen():
    return load("capacity_plans.json")


def test_capacity_plans_cover_every_case(frozen):
    assert sorted(frozen) == sorted(f"{s}@{t:g}" for s in SCENARIOS
                                    for t in TARGETS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("target", TARGETS)
def test_analytic_first_matches_probe_search(default_accel, frozen,
                                             scenario, target):
    """The plan is the probe search's frozen answer, and it is minimal:
    one instance fewer misses the SLO in a direct simulation."""
    requests = SCENARIOS[scenario]()
    plan = plan_capacity(default_accel, requests, target_p99_ms=target,
                         **PLAN_KW)
    want = frozen[f"{scenario}@{target:g}"]
    assert plan.instances == want["instances"]
    assert repr(plan.report.p99_ms) == want["p99_ms"]
    assert plan.meets_slo
    if plan.instances > 1:
        under = summarize(simulate(default_accel, requests,
                                   plan.instances - 1, detail="summary",
                                   **PLAN_KW))
        assert under.p99_ms > target


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_summary_probes_are_an_identity(default_accel, scenario):
    """The planner's ``detail="summary"`` probe report must equal, in
    every field the planner reads, ``summarize`` of a full-detail run
    at the planned fleet size."""
    requests = SCENARIOS[scenario]()
    plan = plan_capacity(default_accel, requests, target_p99_ms=75.0,
                         **PLAN_KW)
    s_rep = plan.report
    f_rep = summarize(simulate(default_accel, requests, plan.instances,
                               detail="full", **PLAN_KW), slo_ms=75.0)
    # Percentiles are nearest-rank order statistics: bit-identical.
    assert (s_rep.p50_ms, s_rep.p95_ms, s_rep.p99_ms) == \
        (f_rep.p50_ms, f_rep.p95_ms, f_rep.p99_ms)
    assert s_rep.total_requests == f_rep.total_requests
    # Means re-associate across shard-ready accumulators: ulp-level.
    assert s_rep.mean_latency_ms == pytest.approx(f_rep.mean_latency_ms,
                                                  rel=1e-12)
    assert s_rep.throughput_rps == pytest.approx(f_rep.throughput_rps,
                                                 rel=1e-12)
    assert s_rep.utilization == pytest.approx(f_rep.utilization,
                                              rel=1e-12)


def test_infeasible_raises(default_accel):
    requests = SCENARIOS["bursty"]()
    with pytest.raises(RuntimeError, match="no fleet"):
        plan_capacity(default_accel, requests, target_p99_ms=1e-6,
                      max_instances=4, **PLAN_KW)


def test_analytic_only_plan_shape(default_accel):
    requests = SCENARIOS["poisson"]()
    plan = plan_capacity(default_accel, requests, target_p99_ms=75.0,
                         confirm=False, **PLAN_KW)
    assert plan.report is None
    assert plan.probes == {}
    assert plan.analytic.feasible
    assert plan.instances == plan.analytic.instances
    assert plan.meets_slo
    assert "[analytic, unconfirmed]" in render_capacity_plan(plan)


@pytest.mark.parametrize("scenario", ("poisson", "bursty", "diurnal"))
def test_propose_fleet_matches_linear_scan(default_accel, scenario):
    """The binary search must land exactly where a linear scan of the
    same analytic predicate lands — the monotonicity premise, checked
    end to end."""
    requests = SCENARIOS[scenario]()
    target = 75.0
    proposal = propose_fleet(default_accel, requests, target,
                             batching=timeout(4, 2.0),
                             reprogram_latency_ms=5.0, max_instances=16)
    assert proposal.feasible
    scan = next(
        n for n in range(1, 17)
        if estimate_serving(default_accel, requests, n,
                            batching=timeout(4, 2.0),
                            reprogram_latency_ms=5.0).p99_ms <= target)
    assert proposal.instances == scan
    assert proposal.estimate.p99_ms <= target
    # The proposal prepares the workload once; its estimate is the
    # one-shot estimate, field for field.
    assert proposal.estimate == estimate_serving(
        default_accel, requests, scan, batching=timeout(4, 2.0),
        reprogram_latency_ms=5.0)


def test_propose_fleet_infeasible_flags_instead_of_raising(default_accel):
    requests = SCENARIOS["poisson"]()
    proposal = propose_fleet(default_accel, requests, 1e-6,
                             batching=timeout(4, 2.0),
                             reprogram_latency_ms=5.0, max_instances=4)
    assert not proposal.feasible
    assert proposal.instances == 4


@pytest.mark.parametrize("target", [math.inf, math.nan])
def test_propose_fleet_rejects_unmeetable_target(default_accel, target):
    """Every fleet meets an infinite p99 target and none a NaN one."""
    with pytest.raises(ValueError, match="target_p99_ms"):
        propose_fleet(default_accel, SCENARIOS["poisson"](), target)


def test_plan_capacity_rejects_infinite_target_before_probing(default_accel):
    """The bad target is named before any probe runs: a probe would
    fail later, inside ``summarize``, naming ``slo_ms`` instead."""
    with pytest.raises(ValueError, match="target_p99_ms"):
        plan_capacity(default_accel, SCENARIOS["poisson"](),
                      target_p99_ms=math.inf, **PLAN_KW)
