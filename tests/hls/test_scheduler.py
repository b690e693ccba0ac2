"""Unit + property tests for the loop-nest latency scheduler.

The key identities Vitis reports for the paper's engines:

* pipelined loop: ``depth + (trip-1)·II``
* sequential loop: ``trip · (body + overhead)``
* nested pipelined loop under a sequential outer loop — Algorithms 1–4.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.hls import Loop, Pipeline, Statement, Unroll, schedule_loop

MAC = Statement("mac", depth=4, dsps=1)


def pipelined(trip, ii=1, body=None):
    return Loop("p", trip, body or [MAC], pipeline=Pipeline(ii=ii))


class TestPipelinedLoops:
    def test_basic_formula(self):
        s = schedule_loop(pipelined(100))
        assert s.cycles == 4 + 99  # depth + (trip-1)*II

    def test_ii_scaling(self):
        s = schedule_loop(pipelined(100, ii=2))
        assert s.cycles == 4 + 99 * 2

    def test_single_iteration_is_just_depth(self):
        assert schedule_loop(pipelined(1)).cycles == 4

    @given(st.integers(1, 10_000), st.integers(1, 8))
    def test_formula_property(self, trip, ii):
        s = schedule_loop(pipelined(trip, ii=ii))
        assert s.cycles == 4 + (trip - 1) * ii

    def test_inner_loop_fully_unrolled_adds_tree_depth(self):
        inner = Loop("i", 64, [MAC])  # implicit unroll under pipeline
        outer = Loop("o", 10, [inner], pipeline=Pipeline(ii=1))
        s = schedule_loop(outer)
        # depth = MAC(4) + log2(64)=6 tree stages
        assert s.depth == 4 + 6
        assert s.cycles == 10 + s.depth - 1


class TestSequentialLoops:
    def test_basic_formula(self):
        lp = Loop("s", 10, [MAC], overhead=1)
        assert schedule_loop(lp).cycles == 10 * (4 + 1)

    def test_pipeline_off_is_sequential(self):
        lp = Loop("s", 10, [MAC], pipeline=Pipeline(off=True))
        assert schedule_loop(lp).cycles == 10 * 5

    def test_nested_sequential(self):
        inner = Loop("i", 4, [MAC])
        outer = Loop("o", 3, [inner])
        s = schedule_loop(outer)
        assert s.cycles == 3 * (4 * 5 + 1)
        assert s.detail["i"] == 20

    def test_partial_unroll_divides_trip(self):
        lp = Loop("s", 16, [MAC], unroll=Unroll(4))
        assert schedule_loop(lp).cycles == 4 * 5

    def test_zero_trip_is_free(self):
        assert schedule_loop(Loop("z", 0, [MAC])).cycles == 0


class TestFullUnroll:
    def test_becomes_parallel_tree(self):
        lp = Loop("u", 16, [MAC], unroll=Unroll(None))
        s = schedule_loop(lp)
        assert s.cycles == 4 + 4  # depth + log2(16)
        assert s.trip == 1


class TestAlgorithmNests:
    """The paper's Algorithm 1 structure: rows off / dk pipelined / tile
    unrolled — per-tile cycles = SL·(depth + dk − 1 + overhead)."""

    def test_algorithm1_shape(self):
        ts, dk, sl = 64, 96, 64
        inner = Loop("tile", ts, [MAC, MAC, MAC])
        middle = Loop("dk", dk, [inner], pipeline=Pipeline(ii=1))
        outer = Loop("rows", sl, [middle], pipeline=Pipeline(off=True))
        s = schedule_loop(outer)
        depth = 3 * 4 + 6  # three chained MACs + log2(64) tree
        assert s.cycles == sl * ((depth + dk - 1) + 1)

    @given(st.integers(1, 256), st.integers(1, 256))
    def test_monotone_in_trips(self, t1, t2):
        """More iterations never cost fewer cycles."""
        lo, hi = sorted([t1, t2])
        c_lo = schedule_loop(pipelined(lo)).cycles
        c_hi = schedule_loop(pipelined(hi)).cycles
        assert c_hi >= c_lo

