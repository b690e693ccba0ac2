"""Quantization and dequantization between float tensors and raw integers.

Everything is vectorized NumPy: the functional simulator quantizes whole
tiles at once (one ``np.rint`` + ``np.clip`` per tile), which is the
idiom the HPC guides prescribe — no per-element Python loops.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .qformat import QFormat

__all__ = [
    "Rounding",
    "quantize",
    "dequantize",
    "requantize",
    "saturate",
    "calibrate_format",
]


class Rounding(Enum):
    """Rounding mode applied when a real value falls between codes.

    ``NEAREST_EVEN`` is what ``np.rint`` implements and what the
    ``AP_RND_CONV`` HLS fixed-point mode performs; ``TRUNCATE`` models
    the cheaper default ``AP_TRN`` (floor toward negative infinity).
    """

    NEAREST_EVEN = "nearest-even"
    TRUNCATE = "truncate"


def saturate(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Clamp raw integer codes into the representable range of ``fmt``."""
    return np.clip(raw, fmt.int_min, fmt.int_max)


def quantize(
    values: np.ndarray,
    fmt: QFormat,
    rounding: Rounding = Rounding.NEAREST_EVEN,
) -> np.ndarray:
    """Quantize real ``values`` into raw integer codes of ``fmt``.

    Returns an ``int64`` array (wide enough for any supported format)
    of saturated codes.  ``dequantize(quantize(x)) ≈ x`` within half an
    LSB for in-range inputs.
    """
    values = np.asarray(values, dtype=np.float64)
    scaled = values * (2.0 ** fmt.frac_bits)
    if rounding is Rounding.NEAREST_EVEN:
        raw = np.rint(scaled)
    elif rounding is Rounding.TRUNCATE:
        raw = np.floor(scaled)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown rounding mode {rounding}")
    return saturate(raw.astype(np.int64), fmt)


def dequantize(raw: np.ndarray, fmt: QFormat) -> np.ndarray:
    """Map raw integer codes of ``fmt`` back to real values."""
    return np.asarray(raw, dtype=np.float64) * fmt.scale


def requantize(
    raw: np.ndarray,
    src: QFormat,
    dst: QFormat,
    rounding: Rounding = Rounding.NEAREST_EVEN,
) -> np.ndarray:
    """Re-scale raw codes from format ``src`` to format ``dst``.

    This is the shift-and-saturate that sits between a wide accumulator
    and the narrow 8-bit inter-engine buffers.  Implemented exactly in
    the integer domain so no double-rounding artifacts appear.
    """
    raw = np.asarray(raw, dtype=np.int64)
    shift = src.frac_bits - dst.frac_bits
    if shift == 0:
        out = raw
    elif shift > 0:
        if rounding is Rounding.NEAREST_EVEN:
            # Round-half-even on a right shift of `shift` bits.
            half = np.int64(1) << np.int64(shift - 1)
            floor = raw >> np.int64(shift)
            rem = raw - (floor << np.int64(shift))
            out = floor + (rem > half).astype(np.int64)
            ties = rem == half
            out = out + (ties & ((floor & 1) == 1)).astype(np.int64)
        else:
            out = raw >> np.int64(shift)
    else:
        out = raw << np.int64(-shift)
    return saturate(out, dst)


def calibrate_format(
    values: np.ndarray, total_bits: int = 8, signed: bool = True
) -> QFormat:
    """Choose the finest :class:`QFormat` that covers ``values``.

    Per-tensor calibration: the deployment flow scans each weight
    tensor once and picks fractional bits so the extremes saturate at
    most half an LSB.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return QFormat(total_bits, total_bits - (1 if signed else 0), signed)
    lo = float(np.min(values))
    hi = float(np.max(values))
    return QFormat.for_range(lo, hi, total_bits=total_bits, signed=signed)


