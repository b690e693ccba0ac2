"""Unit + property tests for the closed-form queueing core.

The two monotonicity properties asserted here are what make binary
search over fleet size valid in :func:`repro.analytic.propose_fleet`:
the analytic p99 is monotone non-increasing in fleet size and monotone
non-decreasing in offered QPS.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytic import (
    erlang_c,
    latency_quantile_ms,
    min_stable_fleet,
    p99_estimate_ms,
    wait_quantile_ms,
)

SERVICE_MS = 2.0    # tail anchor: batched service latency
UNIT_INF_S = 500.0  # per-server completions/s (2 ms of work each)
DURATION_MS = 1_000.0


class TestErlangC:
    def test_zero_load_never_waits(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_saturation_always_waits(self):
        assert erlang_c(2, 2.0) == 1.0
        assert erlang_c(2, 5.0) == 1.0

    def test_known_value(self):
        # Classic M/M/c result: c=2, a=1 erlang -> Pw = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_single_server_wait_probability_is_rho(self):
        assert erlang_c(1, 0.3) == pytest.approx(0.3)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -0.1)

    @settings(deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, 60.0))
    def test_probability_monotone_in_servers(self, servers, erlangs):
        pw = erlang_c(servers, erlangs)
        assert 0.0 <= pw <= 1.0
        assert erlang_c(servers + 1, erlangs) <= pw + 1e-12


class TestMinStableFleet:
    def test_integer_loads_need_one_spare(self):
        assert min_stable_fleet(0.0) == 1
        assert min_stable_fleet(2.0) == 3

    def test_fractional_loads_round_up(self):
        assert min_stable_fleet(0.2) == 1
        assert min_stable_fleet(2.5) == 3


class TestWaitQuantileLowLoadRegression:
    """The probe-path bugfix: ``_p99_estimate_ms`` used to return the
    bare service time whenever the Erlang-C wait probability dropped
    to <= 0.01, collapsing the whole low-utilization regime to a
    constant.  The point estimate must keep the Pw-weighted
    conditional tail instead."""

    def test_point_keeps_conditional_floor(self):
        servers, erlangs = 8, 0.5
        drain = servers * 1.0 - erlangs
        pw = erlang_c(servers, erlangs)
        assert 0.0 < pw <= 0.01, "not the low-load regime"
        wait = wait_quantile_ms(servers, erlangs, drain, 99.0)
        conditional = -math.log(0.01) / drain
        assert wait == pytest.approx(pw * conditional)
        assert wait > 0.0

    def test_p99_exceeds_bare_service_at_low_load(self):
        # fleet 8 at 250 qps of 2 ms work -> 0.5 erlangs, Pw ~ 1e-6.
        est = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, 8, 250.0,
                              DURATION_MS)
        assert est > SERVICE_MS

    def test_bracket_mode_is_documented_upper_tail(self):
        servers, erlangs = 8, 0.5
        drain = servers * 1.0 - erlangs
        hi = wait_quantile_ms(servers, erlangs, drain, 99.0, bracket=True)
        assert hi == pytest.approx(-math.log(0.01) / drain)

    def test_bracket_dominates_point(self):
        for servers, erlangs in ((1, 0.5), (4, 3.2), (8, 0.5), (16, 14.0)):
            drain = servers * 1.0 - erlangs
            point = wait_quantile_ms(servers, erlangs, drain, 99.0)
            hi = wait_quantile_ms(servers, erlangs, drain, 99.0,
                                  bracket=True)
            assert point <= hi + 1e-12


class TestWaitQuantileValidation:
    def test_rejects_nonpositive_drain(self):
        with pytest.raises(ValueError):
            wait_quantile_ms(2, 1.0, 0.0)

    def test_rejects_quantile_outside_range(self):
        with pytest.raises(ValueError):
            wait_quantile_ms(2, 1.0, 1.0, q=101.0)

    def test_q100_is_unbounded(self):
        assert wait_quantile_ms(2, 1.0, 1.0, q=100.0) == math.inf


class TestLatencyQuantileProperties:
    @settings(deadline=None)
    @given(st.integers(1, 32), st.floats(1.0, 4000.0))
    def test_p99_monotone_non_increasing_in_fleet(self, fleet, qps):
        a = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet, qps,
                            DURATION_MS)
        b = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet + 1, qps,
                            DURATION_MS)
        assert b <= a + 1e-9

    @settings(deadline=None)
    @given(st.integers(1, 32),
           st.floats(1.0, 4000.0), st.floats(1.0, 4000.0))
    def test_p99_monotone_non_decreasing_in_qps(self, fleet, q1, q2):
        lo_qps, hi_qps = sorted((q1, q2))
        a = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet, lo_qps,
                            DURATION_MS)
        b = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet, hi_qps,
                            DURATION_MS)
        assert a <= b + 1e-9

    @settings(deadline=None)
    @given(st.integers(1, 32), st.floats(1.0, 4000.0))
    def test_bracket_dominates_point(self, fleet, qps):
        point = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet, qps,
                                DURATION_MS)
        hi = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet, qps,
                             DURATION_MS, bracket=True)
        assert point <= hi + 1e-9

    @settings(deadline=None)
    @given(st.integers(1, 32), st.floats(1.0, 4000.0))
    def test_point_bounded_by_service_plus_horizon(self, fleet, qps):
        # The surrogate's sanity bound: est <= latency + duration.
        est = p99_estimate_ms(SERVICE_MS, UNIT_INF_S, fleet, qps,
                              DURATION_MS)
        assert SERVICE_MS <= est <= SERVICE_MS + DURATION_MS + 1e-9

    def test_saturated_point_is_service_plus_horizon(self):
        # 10 erlangs offered to 4 servers: unstable, so the point
        # estimate pins to the horizon penalty.
        est = latency_quantile_ms(SERVICE_MS, UNIT_INF_S, 4, 5000.0,
                                  DURATION_MS)
        assert est == pytest.approx(SERVICE_MS + DURATION_MS)

    def test_quantiles_are_ordered(self):
        p50 = latency_quantile_ms(SERVICE_MS, UNIT_INF_S, 4, 1800.0,
                                  DURATION_MS, q=50.0)
        p95 = latency_quantile_ms(SERVICE_MS, UNIT_INF_S, 4, 1800.0,
                                  DURATION_MS, q=95.0)
        p99 = latency_quantile_ms(SERVICE_MS, UNIT_INF_S, 4, 1800.0,
                                  DURATION_MS, q=99.0)
        assert p50 <= p95 <= p99
