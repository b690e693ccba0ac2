"""AXI4 master and AXI4-Lite slave transaction cost models.

The accelerator fetches inputs and weights from HBM "using AXI4 master
interfaces when the load instruction ... is received" and takes control
signals "through an AXI-lite slave interface" (Section IV).  The cycle
cost of a read is what matters for latency:

``cycles(bytes) = bursts · setup + beats``

with ``beats = ceil(bytes / (data_bits/8))`` and bursts capped at 256
beats (AXI4 ARLEN).  AXI-Lite configuration writes are single-beat,
several cycles each — negligible against compute but modelled so the
runtime-reprogramming path has a real cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["AXI4Master", "AXILiteSlave"]


@dataclass(frozen=True)
class AXI4Master:
    """One AXI4 read/write master port.

    Parameters
    ----------
    data_bits:
        Data bus width (the paper's HBM ports are 256- or 512-bit; the
        calibrated default models the effective per-engine load path).
    max_burst_beats:
        AXI4 limit of 256 beats per burst.
    setup_cycles:
        Address-phase plus first-data latency per burst (HBM read
        latency through the switch is tens of cycles).
    """

    data_bits: int = 64
    max_burst_beats: int = 256
    setup_cycles: int = 32

    def __post_init__(self) -> None:
        if self.data_bits % 8 or self.data_bits < 8:
            raise ValueError("data_bits must be a positive multiple of 8")
        if self.max_burst_beats < 1 or self.max_burst_beats > 256:
            raise ValueError("max_burst_beats must be in [1, 256]")
        if self.setup_cycles < 1:
            raise ValueError("setup_cycles must be >= 1")

    @property
    def bytes_per_beat(self) -> int:
        return self.data_bits // 8

    def beats(self, nbytes: int) -> int:
        """Data beats needed for ``nbytes``."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        return math.ceil(nbytes / self.bytes_per_beat)

    def bursts(self, nbytes: int) -> int:
        """Bursts needed (ARLEN-limited)."""
        return math.ceil(self.beats(nbytes) / self.max_burst_beats) if nbytes else 0

    def transfer_cycles(self, nbytes: int, contiguous: bool = True) -> int:
        """Cycles to read/write ``nbytes``.

        Non-contiguous transfers (strided tile rows) pay a burst setup
        per row-equivalent chunk; callers pass ``contiguous=False`` and
        pre-split via :meth:`strided_transfer_cycles` instead.
        """
        if nbytes == 0:
            return 0
        if not contiguous:
            raise ValueError("use strided_transfer_cycles for non-contiguous data")
        return self.bursts(nbytes) * self.setup_cycles + self.beats(nbytes)

    def strided_transfer_cycles(self, nbytes_per_chunk: int, chunks: int) -> int:
        """Cycles for ``chunks`` separate contiguous regions.

        Models loading one weight tile whose rows are strided in DRAM:
        every row restarts a burst.
        """
        if chunks < 0:
            raise ValueError("chunks must be non-negative")
        return chunks * self.transfer_cycles(nbytes_per_chunk)


@dataclass(frozen=True)
class AXILiteSlave:
    """Control/status register access over AXI4-Lite."""

    write_cycles: int = 6
    read_cycles: int = 6
