"""Unit tests for AXI transaction cost models."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import AXI4Master


class TestAXI4Master:
    def test_beats(self):
        axi = AXI4Master(data_bits=64)
        assert axi.beats(0) == 0
        assert axi.beats(8) == 1
        assert axi.beats(9) == 2

    def test_bursts_capped_at_256(self):
        axi = AXI4Master(data_bits=64, max_burst_beats=256)
        assert axi.bursts(8 * 256) == 1
        assert axi.bursts(8 * 257) == 2

    def test_transfer_cycles_formula(self):
        axi = AXI4Master(data_bits=64, setup_cycles=32)
        # 2048 bytes = 256 beats = 1 burst.
        assert axi.transfer_cycles(2048) == 32 + 256

    def test_zero_bytes_free(self):
        assert AXI4Master().transfer_cycles(0) == 0

    def test_strided_pays_setup_per_chunk(self):
        axi = AXI4Master(data_bits=64, setup_cycles=32)
        one = axi.transfer_cycles(512)
        assert axi.strided_transfer_cycles(512, 4) == 4 * one

    def test_wider_bus_fewer_cycles(self):
        narrow = AXI4Master(data_bits=32)
        wide = AXI4Master(data_bits=512)
        n = narrow.transfer_cycles(16384)
        w = wide.transfer_cycles(16384)
        assert w < n

    def test_validation(self):
        with pytest.raises(ValueError):
            AXI4Master(data_bits=12)
        with pytest.raises(ValueError):
            AXI4Master(max_burst_beats=0)
        with pytest.raises(ValueError):
            AXI4Master(setup_cycles=0)
        with pytest.raises(ValueError):
            AXI4Master().transfer_cycles(-1)

    @given(st.integers(0, 10**7))
    def test_cycles_monotone_in_bytes(self, nbytes):
        axi = AXI4Master(data_bits=64)
        assert axi.transfer_cycles(nbytes + 8) >= axi.transfer_cycles(nbytes)

    @given(st.integers(1, 10**6))
    def test_cycles_lower_bounded_by_beats(self, nbytes):
        axi = AXI4Master(data_bits=64)
        assert axi.transfer_cycles(nbytes) >= axi.beats(nbytes)


class TestARLENBoundary:
    """Burst math exactly at and around the 256-beat AXI4 ARLEN cap."""

    AXI = AXI4Master(data_bits=64, max_burst_beats=256, setup_cycles=32)
    BURST_BYTES = 8 * 256  # one full burst on a 64-bit bus

    def test_one_byte_over_the_boundary_starts_a_new_burst(self):
        at = self.AXI.transfer_cycles(self.BURST_BYTES)
        over = self.AXI.transfer_cycles(self.BURST_BYTES + 1)
        # One extra beat *and* one extra address phase.
        assert over == at + self.AXI.setup_cycles + 1

    def test_one_byte_under_stays_in_one_burst(self):
        under = self.AXI.transfer_cycles(self.BURST_BYTES - 1)
        assert under == self.AXI.setup_cycles + 256  # still 256 beats

    def test_exact_multiples_pay_exactly_n_setups(self):
        for n in (1, 2, 3, 7):
            cycles = self.AXI.transfer_cycles(n * self.BURST_BYTES)
            assert cycles == n * self.AXI.setup_cycles + n * 256

    def test_single_beat_burst_cap(self):
        axi = AXI4Master(data_bits=64, max_burst_beats=1, setup_cycles=4)
        # Every beat is its own burst: degenerate but legal AXI.
        assert axi.transfer_cycles(64) == 8 * (4 + 1)

    @given(st.integers(1, 1 << 20))
    def test_burst_count_matches_beat_count(self, nbytes):
        axi = self.AXI
        beats = axi.beats(nbytes)
        bursts = axi.bursts(nbytes)
        assert (bursts - 1) * 256 < beats <= bursts * 256

    @given(st.integers(0, 1 << 20), st.integers(1, 1 << 16))
    def test_cycles_monotone_in_arbitrary_step(self, nbytes, delta):
        """Monotone for any byte increment, not just whole beats."""
        axi = self.AXI
        assert (axi.transfer_cycles(nbytes + delta)
                >= axi.transfer_cycles(nbytes))

    @given(st.integers(1, 1 << 20))
    def test_splitting_never_cheaper_than_contiguous(self, nbytes):
        """Two half-transfers pay at least the contiguous cost."""
        axi = self.AXI
        half = nbytes // 2
        split = (axi.transfer_cycles(half)
                 + axi.transfer_cycles(nbytes - half))
        assert split >= axi.transfer_cycles(nbytes)

