"""Unit tests for the HBM subsystem model."""

import pytest

from repro.memory import AXI4Master, HBMChannel, HBMSubsystem


class TestChannel:
    def test_bytes_per_cycle(self):
        ch = HBMChannel(bandwidth_gbps=14.4)
        assert ch.bytes_per_cycle(200.0) == pytest.approx(72.0)

    def test_latency_cycles(self):
        ch = HBMChannel(access_latency_ns=120.0)
        assert ch.access_latency_cycles(200.0) == 24

    def test_invalid_clock(self):
        with pytest.raises(ValueError):
            HBMChannel().bytes_per_cycle(0)


class TestSubsystem:
    def test_protocol_bound_when_port_narrow(self):
        """A 64-bit port at 200 MHz (1.6 GB/s) cannot saturate one HBM
        pseudo-channel (14.4 GB/s) → protocol cost binds."""
        hbm = HBMSubsystem()
        port = AXI4Master(data_bits=64)
        nbytes = 1 << 16
        assert hbm.transfer_cycles(nbytes, port) == port.transfer_cycles(nbytes)

    def test_dram_bound_when_port_wide(self):
        hbm = HBMSubsystem()
        wide = AXI4Master(data_bits=1024, setup_cycles=1)
        nbytes = 1 << 20
        cycles = hbm.transfer_cycles(nbytes, wide)
        assert cycles > wide.transfer_cycles(nbytes) * 0.99
        # must be at least bytes / channel-bytes-per-cycle
        assert cycles >= nbytes / hbm.channel.bytes_per_cycle(hbm.clock_mhz)

    def test_channel_sharing_slows_streams(self):
        hbm = HBMSubsystem(channels=2)
        port = AXI4Master(data_bits=1024, setup_cycles=1)
        solo = hbm.transfer_cycles(1 << 20, port, concurrent_streams=1)
        shared = hbm.transfer_cycles(1 << 20, port, concurrent_streams=8)
        assert shared > solo

    def test_streams_within_channel_count_free(self):
        hbm = HBMSubsystem(channels=32)
        port = AXI4Master(data_bits=64)
        a = hbm.transfer_cycles(4096, port, concurrent_streams=1)
        b = hbm.transfer_cycles(4096, port, concurrent_streams=32)
        assert a == b

    def test_zero_bytes_free(self):
        assert HBMSubsystem().transfer_cycles(0, AXI4Master()) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            HBMSubsystem(channels=0)
        with pytest.raises(ValueError):
            HBMSubsystem().transfer_cycles(1, AXI4Master(),
                                           concurrent_streams=0)


class TestTransferEdgeCases:
    """Boundary behavior of the max(protocol, DRAM) composition."""

    def test_single_byte_pays_full_setup(self):
        """The smallest possible read still costs an address phase and
        the DRAM access latency — whichever is larger binds."""
        hbm = HBMSubsystem()
        port = AXI4Master(data_bits=64, setup_cycles=32)
        cycles = hbm.transfer_cycles(1, port)
        assert cycles == max(
            port.setup_cycles + 1,
            hbm.channel.access_latency_cycles(hbm.clock_mhz) + 1,
        )

    def test_crossover_point_exists(self):
        """Small transfers are DRAM-latency bound on a wide port; large
        ones protocol-bound on a narrow port — the same subsystem."""
        hbm = HBMSubsystem()
        wide = AXI4Master(data_bits=1024, setup_cycles=1)
        narrow = AXI4Master(data_bits=32, setup_cycles=32)
        small, big = 64, 1 << 20
        assert hbm.transfer_cycles(small, wide) > wide.transfer_cycles(small)
        assert (hbm.transfer_cycles(big, narrow)
                == narrow.transfer_cycles(big))

    def test_transfer_monotone_in_stream_count(self):
        hbm = HBMSubsystem(channels=4)
        port = AXI4Master(data_bits=1024, setup_cycles=1)
        costs = [hbm.transfer_cycles(1 << 20, port, concurrent_streams=s)
                 for s in (1, 4, 8, 16, 64)]
        assert costs == sorted(costs)

    def test_fractional_share_rounds_up_not_down(self):
        """5 streams on 4 channels must cost more than 4 on 4."""
        hbm = HBMSubsystem(channels=4)
        port = AXI4Master(data_bits=1024, setup_cycles=1)
        fit = hbm.transfer_cycles(1 << 20, port, concurrent_streams=4)
        spill = hbm.transfer_cycles(1 << 20, port, concurrent_streams=5)
        assert spill > fit

    def test_low_clock_raises_per_cycle_bandwidth(self):
        """Halving the kernel clock doubles bytes-per-cycle, so the
        cycle count of a DRAM-bound transfer shrinks (wall time does
        not — cycles are longer)."""
        slow = HBMSubsystem(clock_mhz=100.0)
        fast = HBMSubsystem(clock_mhz=400.0)
        port = AXI4Master(data_bits=4096, setup_cycles=1)
        assert (slow.transfer_cycles(1 << 20, port)
                < fast.transfer_cycles(1 << 20, port))
