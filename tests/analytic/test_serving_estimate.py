"""Analytic-vs-simulation bracket tests on the golden scenarios.

The closed-form estimate carries a ``[lo, hi]`` bracket for every
reported statistic; the event simulation's answer must sit inside it.
The grid below crosses the six golden arrival scenarios (the same
seeds as ``tests/sim/test_trace_identity.py``) with a fleet sweep, and
a Poisson QPS sweep crosses offered load with fleet size.
"""

import pytest

from repro.analytic import estimate_serving
from repro.serving import PoissonArrivals, simulate, summarize, timeout

from ..sim.test_trace_identity import MIX
# The golden serve configuration and arrival processes; the
# generation-side seeds run here as plain serve workloads.
from .test_capacity import PLAN_KW as SERVE_KW
from .test_capacity import SCENARIOS

FLEETS = (1, 2, 3, 4, 6, 8)

EST_KW = dict(batching=timeout(4, 2.0), reprogram_latency_ms=5.0)


def _assert_bracketed(est, rep, label):
    checks = [
        ("p50", est.p50_lo_ms, rep.p50_ms, est.p50_hi_ms),
        ("p95", est.p95_lo_ms, rep.p95_ms, est.p95_hi_ms),
        ("p99", est.p99_lo_ms, rep.p99_ms, est.p99_hi_ms),
        ("throughput", est.throughput_lo_rps, rep.throughput_rps,
         est.throughput_hi_rps),
        ("utilization", est.utilization_lo, rep.utilization,
         est.utilization_hi),
    ]
    for name, lo, sim_value, hi in checks:
        assert lo <= sim_value <= hi, (
            f"{label}: simulated {name} {sim_value:.6g} escaped the "
            f"analytic bracket [{lo:.6g}, {hi:.6g}]")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_brackets_contain_simulation(default_accel, scenario):
    requests = SCENARIOS[scenario]()
    assert requests, "scenario generated an empty workload"
    for fleet in FLEETS:
        est = estimate_serving(default_accel, requests, fleet, **EST_KW)
        rep = summarize(simulate(default_accel, requests, fleet,
                                 **SERVE_KW))
        _assert_bracketed(est, rep, f"{scenario}@fleet={fleet}")


@pytest.mark.parametrize("n_requests", (120, 500, 1200))
def test_brackets_hold_across_qps_grid(default_accel, n_requests):
    """Seeded QPS x fleet grid: the offered load sweeps with
    ``n_requests`` over a fixed horizon."""
    requests = PoissonArrivals(n_requests, MIX, seed=101).generate(600.0)
    for fleet in (1, 3, 8):
        est = estimate_serving(default_accel, requests, fleet, **EST_KW)
        rep = summarize(simulate(default_accel, requests, fleet,
                                 **SERVE_KW))
        _assert_bracketed(est, rep, f"n={n_requests}@fleet={fleet}")


def test_point_estimates_sit_inside_their_own_bracket(default_accel):
    requests = SCENARIOS["poisson"]()
    for fleet in FLEETS:
        est = estimate_serving(default_accel, requests, fleet, **EST_KW)
        assert est.p50_lo_ms <= est.p50_ms <= est.p50_hi_ms
        assert est.p95_lo_ms <= est.p95_ms <= est.p95_hi_ms
        assert est.p99_lo_ms <= est.p99_ms <= est.p99_hi_ms
        assert (est.throughput_lo_rps <= est.throughput_rps
                <= est.throughput_hi_rps)
        assert est.utilization_lo <= est.utilization <= est.utilization_hi


def test_estimate_rejects_empty_workload(default_accel):
    with pytest.raises(ValueError):
        estimate_serving(default_accel, [], 2)
