"""Q-format (fixed-point) number format descriptors.

ProTEA quantizes the whole datapath to 8-bit fixed point ("Fix8" in the
paper's Table II) with wider accumulators inside each DSP48 MAC.  A
:class:`QFormat` captures the static properties of such a format: total
bit width, number of fractional bits and signedness.  All quantization,
saturation and rescaling logic in :mod:`repro.fixedpoint` is written
against this descriptor so that the bit width can be changed "in the HLS
code" exactly as the paper describes (Section V: "For applications
requiring a larger bit width, the design can be easily modified").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._checks import is_count, is_int

__all__ = ["QFormat"]


@dataclass(frozen=True)
class QFormat:
    """A signed/unsigned fixed-point format ``Q(total_bits, frac_bits)``.

    Parameters
    ----------
    total_bits:
        Total storage width in bits (including sign bit when signed).
    frac_bits:
        Number of fractional bits.  May be negative (values are scaled
        up) or exceed ``total_bits`` (all-fraction sub-unit formats);
        both occur when calibrating formats to tensor ranges.
    signed:
        Two's-complement when ``True`` (the default — DSP48 multipliers
        are signed 27x18 units).
    """

    total_bits: int
    frac_bits: int
    signed: bool = True

    def __post_init__(self) -> None:
        if not is_count(self.total_bits):
            raise ValueError(f"total_bits must be >= 1, got {self.total_bits}")
        if not is_int(self.frac_bits):
            raise ValueError(
                f"frac_bits must be an int, got {self.frac_bits!r}")
        if self.signed and self.total_bits < 2:
            raise ValueError("signed formats need at least 2 bits")

    # ------------------------------------------------------------------
    # Integer-domain bounds
    # ------------------------------------------------------------------
    @property
    def int_min(self) -> int:
        """Smallest representable raw integer."""
        if self.signed:
            return -(1 << (self.total_bits - 1))
        return 0

    @property
    def int_max(self) -> int:
        """Largest representable raw integer."""
        if self.signed:
            return (1 << (self.total_bits - 1)) - 1
        return (1 << self.total_bits) - 1

    # ------------------------------------------------------------------
    # Real-domain properties
    # ------------------------------------------------------------------
    @property
    def scale(self) -> float:
        """Real value of one LSB: ``2**-frac_bits``."""
        return 2.0 ** (-self.frac_bits)

    @property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.int_min * self.scale

    @property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.int_max * self.scale

    def representable(self, value: float) -> bool:
        """Whether ``value`` lies within [min_value, max_value]."""
        return self.min_value <= value <= self.max_value

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------
    @classmethod
    def for_range(
        cls, lo: float, hi: float, total_bits: int = 8, signed: bool = True
    ) -> "QFormat":
        """Pick the fractional-bit count that covers ``[lo, hi]``.

        Chooses the largest ``frac_bits`` (finest resolution) such that
        both endpoints remain representable.  This mirrors the
        per-tensor calibration a deployment flow performs before
        loading weights into the accelerator.
        """
        if hi < lo:
            raise ValueError("empty range")
        magnitude = max(abs(lo), abs(hi), 1e-30)
        # Integer bits needed to hold `magnitude` (negative for
        # sub-unit ranges: all-fraction formats are finest there).
        sign_bit = 1 if signed else 0
        int_bits_needed = math.ceil(math.log2(magnitude + 1e-30))
        # Allow representing exactly `magnitude` with headroom for the
        # asymmetric two's-complement positive bound.
        fmt = cls(total_bits, total_bits - sign_bit - int_bits_needed, signed)
        while not (fmt.representable(lo) and fmt.representable(hi)):
            fmt = cls(total_bits, fmt.frac_bits - 1, signed)
        return fmt

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "s" if self.signed else "u"
        return f"{kind}Q{self.total_bits}.{self.frac_bits}"
