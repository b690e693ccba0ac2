"""Every public numeric entry point rejects a bad value with ValueError.

The CLI's ``TestBadInputsExitTwo`` table pins the command line; this
property test pins the library underneath it.  Each case draws NaN,
+-inf and out-of-range values for one parameter and requires the call
to raise ``ValueError``: never a result, never another exception type.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analytic import estimate_generation, estimate_serving, propose_fleet
from repro.nn.model_zoo import MODEL_ZOO
from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    plan_capacity,
    simulate,
    simulate_generation,
    summarize,
    summarize_generation,
    timeout,
)
from repro.sim import FailurePlan, InstanceSpec

MODEL = "model2-lhc-trigger"
MIX = ModelMix({MODEL: 1.0})

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
#: Finite reals at or below zero, and below zero.
NOT_POSITIVE = NON_FINITE | st.floats(max_value=0.0, allow_nan=False)
#: NaN, -inf and finite reals at or below zero (+inf is a valid bound).
NAN_OR_NOT_POSITIVE = (st.sampled_from([math.nan, -math.inf])
                       | st.floats(max_value=0.0, allow_nan=False))
NEGATIVE = NON_FINITE | st.floats(max_value=0.0, exclude_max=True,
                                  allow_nan=False)
#: Anything but an int >= 1: zero and negative ints, every float
#: (integral ones included) and bools.
NOT_COUNT = (st.integers(max_value=0) | st.floats() | st.booleans())
#: Outside the open interval (0, 1), and outside [0, 1].
NOT_OPEN_UNIT = NON_FINITE | st.floats(max_value=0.0) | st.floats(min_value=1.0)
NOT_UNIT = (NON_FINITE | st.floats(max_value=0.0, exclude_max=True)
            | st.floats(min_value=1.0, exclude_min=True))


def _burst(**kw):
    return BurstyArrivals(100.0, MIX, **kw)


def _diurnal(**kw):
    return DiurnalArrivals(100.0, MIX, **kw)


#: ``(case id, call(value, results), bad-value strategy)``.
CASES = [
    ("poisson.qps", lambda v, r: PoissonArrivals(v, MIX), NOT_POSITIVE),
    ("poisson.generate", lambda v, r: PoissonArrivals(100.0, MIX).generate(v),
     NEGATIVE),
    ("bursty.qps", lambda v, r: BurstyArrivals(v, MIX), NOT_POSITIVE),
    ("bursty.burst_factor", lambda v, r: _burst(burst_factor=v),
     NON_FINITE | st.floats(max_value=1.0, exclude_max=True)),
    ("bursty.burst_fraction", lambda v, r: _burst(burst_fraction=v),
     NOT_OPEN_UNIT),
    ("bursty.dwell_ms", lambda v, r: _burst(dwell_ms=v), NOT_POSITIVE),
    ("bursty.generate", lambda v, r: _burst().generate(v), NEGATIVE),
    ("diurnal.peak_qps", lambda v, r: DiurnalArrivals(v, MIX), NOT_POSITIVE),
    ("diurnal.period_ms", lambda v, r: _diurnal(period_ms=v), NOT_POSITIVE),
    ("diurnal.floor", lambda v, r: _diurnal(floor=v), NOT_UNIT),
    ("diurnal.generate", lambda v, r: _diurnal().generate(v), NEGATIVE),
    ("mix.weight", lambda v, r: ModelMix({MODEL: 1.0, "other": v}),
     NEGATIVE),
    ("mix.only_weight", lambda v, r: ModelMix({MODEL: v}), NOT_POSITIVE),
    ("timeout.max_batch", lambda v, r: timeout(v, 2.0), NOT_COUNT),
    ("timeout.timeout_ms", lambda v, r: timeout(8, v), NEGATIVE),
    ("failure.mtbf_ms", lambda v, r: FailurePlan(v, 10.0), NOT_POSITIVE),
    ("failure.mttr_ms", lambda v, r: FailurePlan(100.0, v), NEGATIVE),
    ("failure.horizon_ms",
     lambda v, r: FailurePlan(100.0, 10.0, horizon_ms=v), NEGATIVE),
    ("instance.speed", lambda v, r: InstanceSpec(speed=v), NOT_POSITIVE),
    ("lengths.lo", lambda v, r: LengthSampler("uniform", v, 64), NOT_COUNT),
    ("lengths.hi", lambda v, r: LengthSampler("uniform", 4, v), NOT_COUNT),
    ("lengths.mean_extra",
     lambda v, r: LengthSampler("geometric", 4, 64, mean_extra=v), NEGATIVE),
    ("summarize.slo_ms", lambda v, r: summarize(r["serve"], slo_ms=v),
     NOT_POSITIVE),
    ("summarize_generation.ttft_slo_ms",
     lambda v, r: summarize_generation(r["generate"], ttft_slo_ms=v),
     NOT_POSITIVE),
    ("summarize_generation.tpot_slo_ms",
     lambda v, r: summarize_generation(r["generate"], tpot_slo_ms=v),
     NOT_POSITIVE),
    ("generation.slots",
     lambda v, r: simulate_generation(r["accel"], r["gen_requests"], 2,
                                      slots=v, detail="summary"),
     NOT_COUNT),
    ("instance.slots", lambda v, r: InstanceSpec(slots=v), NOT_COUNT),
    ("plan_capacity.target_qps",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], 5.0,
                                target_qps=v),
     NOT_POSITIVE),
    ("plan_capacity.max_instances",
     lambda v, r: plan_capacity(r["accel"], r["arrivals"], 5.0,
                                max_instances=v),
     NOT_COUNT),
    ("propose_fleet.target_p99_ms",
     lambda v, r: propose_fleet(r["accel"], r["arrivals"], v),
     NAN_OR_NOT_POSITIVE),
    ("propose_fleet.target_qps",
     lambda v, r: propose_fleet(r["accel"], r["arrivals"], 5.0,
                                target_qps=v),
     NOT_POSITIVE),
    ("propose_fleet.max_instances",
     lambda v, r: propose_fleet(r["accel"], r["arrivals"], 5.0,
                                max_instances=v),
     NOT_COUNT),
    ("estimate_serving.fleet",
     lambda v, r: estimate_serving(r["accel"], r["arrivals"], v),
     NOT_COUNT),
    ("estimate_generation.fleet",
     lambda v, r: estimate_generation(r["accel"], MODEL_ZOO[MODEL], 8, 4,
                                      fleet=v),
     NOT_COUNT),
    ("estimate_generation.slots",
     lambda v, r: estimate_generation(r["accel"], MODEL_ZOO[MODEL], 8, 4,
                                      slots=v),
     NOT_COUNT),
    ("estimate_generation.qps",
     lambda v, r: estimate_generation(r["accel"], MODEL_ZOO[MODEL], 8, 4,
                                      qps=v, duration_ms=50.0),
     NOT_POSITIVE),
]


@pytest.fixture(scope="module")
def results(default_accel):
    """One small serve run and one small generation run to summarize,
    with their inputs for the calls that take a workload."""
    arrivals = PoissonArrivals(200.0, MIX, seed=1).generate(50.0)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("fixed", 8), LengthSampler("fixed", 4),
        seed=1)
    return {"serve": simulate(default_accel, arrivals, n_instances=2),
            "generate": simulate_generation(default_accel, requests,
                                            n_instances=2),
            "accel": default_accel, "arrivals": arrivals,
            "gen_requests": requests}


@pytest.mark.parametrize("call,bad", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_bad_numeric_input_raises_value_error(call, bad, results):
    @given(value=bad)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def check(value):
        with pytest.raises(ValueError):
            call(value, results)

    check()
