"""Bench: absolute wall time of the analytic-first capacity planner.

``plan_capacity`` proposes a fleet with closed-form M/M/c + fluid
estimates and confirms with a couple of summary-detail simulations
bracketing the proposal.  The scenario is capacity-planning scale
(~250k requests over a 20 s horizon), where every avoided probe is
seconds of event-loop time.

The plan must equal the frozen answer below before any number is
recorded.  It was frozen while the seed probe-from-1 search (full-
detail probes from one instance up) still ran beside this planner and
landed on the same plan (8 probes against 2).

``plan_capacity_analytic_s`` is host-rescaled like the kernel rows
(``_calibrated`` in ``test_sim_kernel.py``): the median of five calls,
each rescaled by the calibration-kernel runs beside it.
"""

from repro import ProTEA, SynthParams
from repro.serving import (
    ModelMix,
    PoissonArrivals,
    fixed_size,
    plan_capacity,
)

from test_sim_kernel import _calibrated

TARGET_P99_MS = 12.0
#: ``(instances, repr(report.p99_ms))`` of the plan.
FROZEN_PLAN = (9, "2.382118775833078")


def test_bench_plan_capacity_analytic_first(record_perf):
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(
        12_600, ModelMix({"model2-lhc-trigger": 1.0}),
        seed=7).generate(20_000.0)
    assert len(requests) > 200_000
    qps = len(requests) / 20.0
    kw = dict(target_p99_ms=TARGET_P99_MS, target_qps=qps,
              scheduler="round-robin", batching=fixed_size(8))

    # Warm the service-time memos so no timed call pays first-call
    # synthesis costs.
    plan_capacity(accel, requests[:2_000], target_p99_ms=TARGET_P99_MS,
                  scheduler="round-robin", batching=fixed_size(8))

    wall, plan = _calibrated(lambda: plan_capacity(accel, requests, **kw),
                             rounds=5)
    assert (plan.instances, repr(plan.report.p99_ms)) == FROZEN_PLAN
    assert plan.meets_slo

    record_perf("capacity", "plan_capacity_analytic_s", wall, "s",
                context={"requests": len(requests),
                         "instances": plan.instances,
                         "probes": len(plan.probes)})
