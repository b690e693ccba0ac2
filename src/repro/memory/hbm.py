"""Off-chip HBM model: channels, bandwidth, contention.

The U55C exposes 32 HBM2 pseudo-channels (~14.4 GB/s each, 460 GB/s
aggregate).  Each engine group's AXI master maps to a pseudo-channel;
when several engines load concurrently the per-channel bandwidth is
what each sees — the aggregate ceiling only binds if a single channel
is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .axi import AXI4Master

__all__ = ["HBMChannel", "HBMSubsystem"]


@dataclass(frozen=True)
class HBMChannel:
    """One pseudo-channel with a peak bandwidth and access latency."""

    bandwidth_gbps: float = 14.4
    access_latency_ns: float = 120.0

    def bytes_per_cycle(self, clock_mhz: float) -> float:
        """Sustainable bytes per kernel cycle at ``clock_mhz``."""
        if clock_mhz <= 0:
            raise ValueError("clock must be positive")
        return self.bandwidth_gbps * 1e9 / (clock_mhz * 1e6)

    def access_latency_cycles(self, clock_mhz: float) -> int:
        """First-word latency in kernel cycles."""
        return math.ceil(self.access_latency_ns * clock_mhz / 1000.0)


@dataclass(frozen=True)
class HBMSubsystem:
    """The card's memory system as seen by the accelerator.

    ``transfer_cycles`` takes the max of the AXI protocol cost and the
    channel-bandwidth cost so narrow AXI ports are port-limited and
    wide ones are DRAM-limited — whichever binds.
    """

    channels: int = 32
    channel: HBMChannel = HBMChannel()
    clock_mhz: float = 200.0

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ValueError("need at least one channel")

    def transfer_cycles(
        self, nbytes: int, port: AXI4Master, concurrent_streams: int = 1
    ) -> int:
        """Cycles to move ``nbytes`` through one AXI port.

        ``concurrent_streams`` > channels means channel sharing: each
        stream sees a proportionally reduced bandwidth.
        """
        if nbytes == 0:
            return 0
        if concurrent_streams < 1:
            raise ValueError("concurrent_streams must be >= 1")
        protocol = port.transfer_cycles(nbytes)
        share = max(1.0, concurrent_streams / self.channels)
        bpc = self.channel.bytes_per_cycle(self.clock_mhz) / share
        dram = self.channel.access_latency_cycles(self.clock_mhz) + math.ceil(
            nbytes / bpc
        )
        return max(protocol, dram)
