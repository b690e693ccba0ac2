"""Array-to-memory mapping: BRAM/LUTRAM banks, ports and partitioning.

The paper: "Input data and weights are stored in multiple
BRAMs/LUTRAMs to support parallel access ... array partitioning and
data loading are optimized to ensure that data needed simultaneously by
a DSP is stored in separate BRAMs."  This module reproduces that
mapping: an :class:`ArraySpec` plus partition pragmas yields a bank
count and a storage binding (BRAM18K vs distributed LUTRAM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from .pragmas import ArrayPartition

__all__ = ["ArraySpec", "BankBinding", "LUTRAM_THRESHOLD_BITS"]

#: Arrays at or below this size bind to distributed LUTRAM (Vitis's
#: default heuristic is ~1K bits per bank before it spends a BRAM18K).
LUTRAM_THRESHOLD_BITS = 1024

#: Bits stored per logic LUT when used as distributed RAM (LUT6 = 64x1).
BITS_PER_LUTRAM_LUT = 64

#: Capacity of one BRAM18K block in bits.
BRAM18K_BITS = 18 * 1024


@dataclass(frozen=True)
class ArraySpec:
    """A C array in the HLS source plus its partition pragmas.

    Parameters
    ----------
    name:
        Variable name (for diagnostics).
    shape:
        Logical dimensions, e.g. ``(d_k, TS_MHA)`` for a weight buffer.
    element_bits:
        Storage width of one element (8 for the Fix8 datapath).
    partitions:
        ``array_partition`` pragmas applied to this array; factors on
        distinct dims multiply.
    """

    name: str
    shape: Tuple[int, ...]
    element_bits: int = 8
    partitions: Tuple[ArrayPartition, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if any(s < 1 for s in self.shape):
            raise ValueError(f"{self.name}: shape must be positive, got {self.shape}")
        if self.element_bits < 1:
            raise ValueError(f"{self.name}: element_bits must be >= 1")
        for p in self.partitions:
            if p.dim > len(self.shape):
                raise ValueError(
                    f"{self.name}: partition dim {p.dim} exceeds rank {len(self.shape)}"
                )

    # ------------------------------------------------------------------
    @property
    def elements(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def total_bits(self) -> int:
        return self.elements * self.element_bits

    @property
    def banks(self) -> int:
        """Physical banks after applying all partition pragmas."""
        n = 1
        for p in self.partitions:
            n *= p.banks(self.shape)
        return min(n, self.elements)

    # ------------------------------------------------------------------
    def bind(self) -> "BankBinding":
        """Bind the array to physical storage.

        Each bank holds ``total_bits / banks``; banks at or below
        :data:`LUTRAM_THRESHOLD_BITS` become distributed LUTRAM,
        larger ones consume BRAM18K (possibly several when a bank
        exceeds 18 Kbit).
        """
        banks = self.banks
        bits_per_bank = math.ceil(self.total_bits / banks)
        if bits_per_bank <= LUTRAM_THRESHOLD_BITS:
            luts = banks * math.ceil(
                bits_per_bank / BITS_PER_LUTRAM_LUT
            ) * max(1, self.element_bits // 8)
            return BankBinding(self.name, banks, bits_per_bank, "lutram",
                               bram18k=0, lutram_luts=luts)
        bram_per_bank = math.ceil(bits_per_bank / BRAM18K_BITS)
        return BankBinding(self.name, banks, bits_per_bank, "bram",
                           bram18k=banks * bram_per_bank, lutram_luts=0)


@dataclass(frozen=True)
class BankBinding:
    """Physical storage binding of one array."""

    name: str
    banks: int
    bits_per_bank: int
    storage: str  # 'bram' | 'lutram'
    bram18k: int
    lutram_luts: int
