"""Unit tests for batching policies and the batched service kernel."""

import math

import pytest

from repro.nn import MODEL_ZOO, get_model
from repro.serving import (
    ServiceTimeModel,
    fixed_size,
    get_batching,
    no_batching,
    timeout,
)


@pytest.fixture(scope="module")
def service(default_accel):
    return ServiceTimeModel(default_accel, MODEL_ZOO)


class TestPolicyDecisions:
    def test_no_batching_always_single(self):
        p = no_batching()
        assert p.decide(1, 0.0) == 1
        assert p.decide(5, 0.0) == 1

    def test_fixed_size_greedy(self):
        p = fixed_size(4)
        assert p.decide(7, 0.0) == 4    # cap at max batch
        assert p.decide(2, 0.0) == 2    # never waits for stragglers

    def test_timeout_waits_then_flushes(self):
        p = timeout(4, 2.0)
        assert p.decide(4, 0.0) == 4          # full batch: go now
        assert p.decide(2, 0.5) is None       # partial, young head: wait
        assert p.decide(2, 2.0) == 2          # deadline reached: flush
        assert p.decide(3, 5.0) == 3

    def test_factory(self):
        assert get_batching("none").max_batch == 1
        assert get_batching("fixed", 16).max_batch == 16
        p = get_batching("timeout", 8, 3.0)
        assert (p.max_batch, p.timeout_ms) == (8, 3.0)
        with pytest.raises(KeyError):
            get_batching("nope")

    def test_validation(self):
        with pytest.raises(ValueError):
            fixed_size(0)
        with pytest.raises(ValueError):
            timeout(4, -1.0)

    @pytest.mark.parametrize("timeout_ms", [math.nan, math.inf])
    def test_rejects_non_finite_timeout(self, timeout_ms):
        """A NaN deadline never fires, so a run batching on it used to
        never return; an infinite one fired at t = inf and made the
        makespan infinite."""
        with pytest.raises(ValueError, match="timeout_ms"):
            timeout(4, timeout_ms)


class TestServiceTimeModel:
    def test_batch_of_one_matches_latency_report(self, service, default_accel):
        cfg = get_model("model2-lhc-trigger")
        expected = default_accel.latency_report(cfg).latency_ms
        assert service.batch_service_ms("model2-lhc-trigger", 1) == expected

    def test_invocation_packing(self, service, default_accel):
        # model2 has SL=20; max_seq_len=128 → 6 requests per invocation.
        assert default_accel.synth.max_seq_len == 128
        assert service.invocation_seq_lens("model2-lhc-trigger", 6) == [120]
        assert service.invocation_seq_lens("model2-lhc-trigger", 8) == [120, 40]
        # bert-variant has SL=64 → 2 per invocation.
        assert service.invocation_seq_lens("bert-variant", 5) == [128, 128, 64]

    def test_batching_is_sublinear(self, service):
        """Packed invocations amortize the per-invocation weight streams."""
        one = service.batch_service_ms("model2-lhc-trigger", 1)
        six = service.batch_service_ms("model2-lhc-trigger", 6)
        assert six < 6 * one
        assert six >= one  # but more tokens never get cheaper than fewer

    def test_batch_beyond_one_invocation_adds_up(self, service):
        six = service.batch_service_ms("model2-lhc-trigger", 6)
        twelve = service.batch_service_ms("model2-lhc-trigger", 12)
        assert twelve == pytest.approx(2 * six)

    def test_unknown_model_raises(self, service):
        with pytest.raises(KeyError, match="unknown model"):
            service.batch_service_ms("nope", 1)

    def test_unservable_model_rejected_on_use(self, default_accel):
        """Validation is lazy: an unservable zoo entry only errors when
        the workload actually requests it — a table full of large
        models must not break simulations that never touch them."""
        from repro.nn import TransformerConfig

        big = TransformerConfig("too-long", d_model=256, num_heads=4,
                                num_layers=1, seq_len=512)
        ok = TransformerConfig("fits", d_model=64, num_heads=2,
                               num_layers=1, seq_len=16)
        svc = ServiceTimeModel(default_accel, {"too-long": big, "fits": ok})
        assert svc.batch_service_ms("fits", 2) > 0
        with pytest.raises(ValueError, match="max_seq_len"):
            svc.batch_service_ms("too-long", 1)

    def test_cache_is_exact(self, service):
        a = service.batch_service_ms("model3-efa-trans", 3)
        b = service.batch_service_ms("model3-efa-trans", 3)
        assert a == b
