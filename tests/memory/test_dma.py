"""Unit + property tests for load/compute overlap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import TilePhase, overlapped_cycles, serialized_cycles

phases_strategy = st.lists(
    st.tuples(st.integers(0, 10_000), st.integers(0, 10_000)).map(
        lambda lc: TilePhase(load=lc[0], compute=lc[1])),
    min_size=0, max_size=20,
)


def uniform_phases(n_tiles, load, compute):
    """``n_tiles`` identical tiles, as the latency model builds them."""
    return [TilePhase(load=load, compute=compute)] * n_tiles


class TestSerialized:
    def test_simple_sum(self):
        phases = uniform_phases(3, load=10, compute=20)
        rep = serialized_cycles(phases)
        assert rep.total == 90
        assert rep.overlap_saved == 0


class TestOverlapped:
    def test_textbook_case(self):
        # load0 + max(c0, l1) + max(c1, l2) + c2
        phases = uniform_phases(3, load=10, compute=20)
        rep = overlapped_cycles(phases)
        assert rep.total == 10 + 20 + 20 + 20

    def test_load_bound_case(self):
        phases = uniform_phases(3, load=30, compute=5)
        rep = overlapped_cycles(phases)
        assert rep.total == 30 + 30 + 30 + 5

    def test_empty_sequence(self):
        assert overlapped_cycles([]).total == 0

    def test_single_tile_no_overlap_possible(self):
        rep = overlapped_cycles([TilePhase(10, 20)])
        assert rep.total == 30
        assert rep.overlap_saved == 0

    @given(phases_strategy)
    def test_overlap_never_worse_than_serial(self, phases):
        assert overlapped_cycles(phases).total <= serialized_cycles(phases).total

    @given(phases_strategy)
    def test_overlap_lower_bound(self, phases):
        """Total can never beat max(all loads, all computes)."""
        rep = overlapped_cycles(phases)
        assert rep.total >= max(rep.load_only, rep.compute_only)

    @given(phases_strategy)
    def test_saving_bounded_by_smaller_side(self, phases):
        rep = overlapped_cycles(phases)
        assert rep.overlap_saved <= min(rep.load_only, rep.compute_only)

    def test_perfect_hiding(self):
        """Equal load/compute with many tiles → nearly all load hidden."""
        phases = uniform_phases(100, load=10, compute=10)
        rep = overlapped_cycles(phases)
        assert rep.overlap_saved > 0.98 * min(rep.load_only, rep.compute_only)


class TestValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TilePhase(-1, 0)


class TestOverlapEdgeCases:
    def test_zero_load_phases_pure_compute(self):
        """All-resident weights: overlap degenerates to compute sum."""
        phases = uniform_phases(5, load=0, compute=7)
        assert overlapped_cycles(phases).total == 35
        assert serialized_cycles(phases).total == 35

    def test_zero_compute_phases_pure_streaming(self):
        """Zero-work tiles: nothing can hide, totals equal the loads."""
        phases = uniform_phases(5, load=7, compute=0)
        assert overlapped_cycles(phases).total == 35
        assert serialized_cycles(phases).total == 35

    def test_alternating_bound_phases(self):
        """Load-bound and compute-bound tiles interleaved: each pair
        hides the smaller side exactly once."""
        phases = [TilePhase(100, 1), TilePhase(1, 100),
                  TilePhase(100, 1), TilePhase(1, 100)]
        rep = overlapped_cycles(phases)
        # 100 + max(1,1) + max(100,100) + max(1,1) + 100
        assert rep.total == 100 + 1 + 100 + 1 + 100

    def test_single_zero_phase(self):
        rep = overlapped_cycles([TilePhase(0, 0)])
        assert rep.total == 0

    @pytest.mark.parametrize("schedule", [serialized_cycles,
                                          overlapped_cycles])
    def test_no_tiles_cost_nothing(self, schedule):
        """An engine whose extent rounds to zero tiles takes no cycles
        under either buffering mode."""
        assert schedule([]) == schedule(uniform_phases(0, 10, 20))
        assert schedule([]).total == 0
