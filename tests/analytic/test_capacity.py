"""Analytic-first ``plan_capacity``: identity with the seed search.

Three contracts pin the tentpole rewiring:

* the analytic-first search returns the *same* confirmed plan as the
  seed probe-from-1 search (``mode="probe"``) on the golden scenarios,
  feasible and infeasible alike;
* ``probe_detail="summary"`` probes are an identity with the seed's
  full-detail probes (exact percentiles, ulp-level means);
* :func:`propose_fleet`'s binary search equals a linear scan of its
  own predicate.
"""

import pytest

from repro.analytic import estimate_serving, propose_fleet
from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    ModelMix,
    PoissonArrivals,
    plan_capacity,
    render_capacity_plan,
    timeout,
)

MIX = ModelMix({
    "model2-lhc-trigger": 3.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})

SCENARIOS = {
    "poisson": lambda: PoissonArrivals(500, MIX, seed=101).generate(600.0),
    "bursty": lambda: BurstyArrivals(
        400, MIX, seed=202, burst_factor=5.0, dwell_ms=80.0).generate(600.0),
    "diurnal": lambda: DiurnalArrivals(
        600, MIX, seed=303, period_ms=600.0).generate(600.0),
    "g-poisson": lambda: PoissonArrivals(30, MIX, seed=404).generate(500.0),
    "g-bursty": lambda: BurstyArrivals(
        25, MIX, seed=505, dwell_ms=120.0).generate(500.0),
    "g-diurnal": lambda: DiurnalArrivals(
        40, MIX, seed=606, period_ms=500.0).generate(500.0),
}

PLAN_KW = dict(scheduler="model-affinity", batching=timeout(4, 2.0),
               reprogram_latency_ms=5.0)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("target", (75.0, 300.0))
def test_analytic_first_matches_probe_search(default_accel, scenario,
                                             target):
    requests = SCENARIOS[scenario]()
    analytic = plan_capacity(default_accel, requests,
                             target_p99_ms=target, **PLAN_KW)
    probe = plan_capacity(default_accel, requests, target_p99_ms=target,
                          mode="probe", **PLAN_KW)
    assert analytic.instances == probe.instances
    assert analytic.report.p99_ms == probe.report.p99_ms
    assert analytic.meets_slo and probe.meets_slo
    assert analytic.analytic is not None
    assert probe.analytic is None


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_summary_probes_are_an_identity(default_accel, scenario):
    """The probe-path bugfix: ``detail="summary"`` probes must leave
    the planned fleet size and every report field the seed search
    read unchanged."""
    requests = SCENARIOS[scenario]()
    summary = plan_capacity(default_accel, requests, target_p99_ms=75.0,
                            mode="probe", probe_detail="summary",
                            **PLAN_KW)
    full = plan_capacity(default_accel, requests, target_p99_ms=75.0,
                         mode="probe", probe_detail="full", **PLAN_KW)
    assert summary.instances == full.instances
    assert summary.probes == full.probes
    s_rep, f_rep = summary.report, full.report
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


def test_infeasible_raises_in_both_modes(default_accel):
    requests = SCENARIOS["bursty"]()
    for mode in ("analytic", "probe"):
        with pytest.raises(RuntimeError, match="no fleet"):
            plan_capacity(default_accel, requests, target_p99_ms=1e-6,
                          mode=mode, max_instances=4, **PLAN_KW)


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


def test_plan_mode_validation(default_accel):
    requests = SCENARIOS["poisson"]()
    with pytest.raises(ValueError, match="unknown plan mode"):
        plan_capacity(default_accel, requests, target_p99_ms=75.0,
                      mode="guess", **PLAN_KW)
    with pytest.raises(ValueError, match="confirm=False requires"):
        plan_capacity(default_accel, requests, target_p99_ms=75.0,
                      mode="probe", confirm=False, **PLAN_KW)
    with pytest.raises(ValueError, match="sharded probes"):
        plan_capacity(default_accel, requests, target_p99_ms=75.0,
                      probe_detail="full", shards=2, **PLAN_KW)


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
