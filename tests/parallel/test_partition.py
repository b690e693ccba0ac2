"""Tests for the DP layer splitter and tensor-parallel stage math."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ProTEA, SynthParams
from repro.nn import get_model
from repro.parallel import (
    AURORA_64B66B,
    balanced_partition,
    tp_allreduce_cycles,
    validate_tensor_parallel,
)


@pytest.fixture(scope="module")
def accel():
    return ProTEA.synthesize(SynthParams())


class TestBalancedPartition:
    def test_uniform_costs_split_evenly(self):
        parts = balanced_partition([5] * 12, 4)
        assert parts == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_covers_everything_contiguously(self):
        parts = balanced_partition([3, 1, 4, 1, 5, 9, 2, 6], 3)
        assert parts[0][0] == 0 and parts[-1][1] == 8
        for (_, e), (s, _) in zip(parts, parts[1:]):
            assert e == s

    def test_k_equals_n_one_layer_each(self):
        assert balanced_partition([1, 2, 3], 3) == [(0, 1), (1, 2), (2, 3)]

    def test_k_one_single_segment(self):
        assert balanced_partition([7, 7, 7], 1) == [(0, 3)]

    def test_skewed_costs_isolate_the_heavy_layer(self):
        parts = balanced_partition([1, 1, 100, 1, 1], 3)
        sums = [sum([1, 1, 100, 1, 1][a:b]) for a, b in parts]
        assert max(sums) == 100  # the heavy layer sits alone

    def test_validation(self):
        with pytest.raises(ValueError):
            balanced_partition([1, 2], 3)
        with pytest.raises(ValueError):
            balanced_partition([1, 2], 0)
        with pytest.raises(ValueError):
            balanced_partition([1, -1], 1)

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=8),
           st.integers(1, 4))
    def test_optimal_against_brute_force(self, costs, k):
        """The DP bottleneck matches exhaustive search."""
        if k > len(costs):
            return
        parts = balanced_partition(costs, k)
        got = max(sum(costs[a:b]) for a, b in parts)
        n = len(costs)
        best = None
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            bottleneck = max(sum(costs[bounds[i]:bounds[i + 1]])
                             for i in range(k))
            best = bottleneck if best is None else min(best, bottleneck)
        assert got == best


class TestTensorParallelLayer:
    def test_tp_reduces_weight_traffic_not_compute(self, accel):
        """Head splits shrink the streamed loads; the per-head engines
        already ran in parallel, so compute cycles hold still."""
        lm = accel.latency_model
        cfg = get_model("bert-variant")
        one = lm.layer_cycles(cfg.seq_len, cfg.d_model, cfg.num_heads,
                              tp=1)
        two = lm.layer_cycles(cfg.seq_len, cfg.d_model, cfg.num_heads,
                              tp=2)
        assert two.loads["qkv"] < one.loads["qkv"]
        assert two.load_total < one.load_total
        assert two.compute["qk"] == one.compute["qk"]
        assert two.total < one.total

    def test_tp_monotone_in_ways(self, accel):
        lm = accel.latency_model
        cfg = get_model("bert-variant")
        totals = [
            lm.layer_cycles(cfg.seq_len, cfg.d_model, cfg.num_heads,
                            tp=tp).total
            for tp in (1, 2, 4, 8)
        ]
        assert totals == sorted(totals, reverse=True)

    def test_indivisible_heads_rejected(self, accel):
        lm = accel.latency_model
        with pytest.raises(ValueError, match="divisible"):
            lm.layer_cycles(64, 768, 8, tp=3)

    def test_validate_tensor_parallel(self):
        cfg = get_model("bert-variant")
        validate_tensor_parallel(cfg, 4)  # 8 heads: fine
        with pytest.raises(ValueError, match="whole heads"):
            validate_tensor_parallel(cfg, 3)
        with pytest.raises(ValueError):
            validate_tensor_parallel(cfg, 0)


class TestAllReduceCost:
    def test_tp1_free(self, accel):
        cfg = get_model("bert-variant")
        assert tp_allreduce_cycles(accel.latency_model, cfg, 1,
                                   AURORA_64B66B, accel.clock_mhz) == 0

    def test_two_collectives_per_layer(self, accel):
        """The per-layer cost is exactly two activation all-reduces."""
        from repro.parallel import activation_bytes

        lm = accel.latency_model
        cfg = get_model("bert-variant")
        nbytes = activation_bytes(lm, cfg.seq_len, cfg.d_model)
        got = tp_allreduce_cycles(lm, cfg, 4, AURORA_64B66B,
                                  accel.clock_mhz)
        assert got == 2 * AURORA_64B66B.allreduce_cycles(
            nbytes, 4, accel.clock_mhz)
