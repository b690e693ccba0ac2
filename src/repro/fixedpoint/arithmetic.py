"""Integer-domain tensor arithmetic mirroring the DSP48 datapath.

The compute engines in :mod:`repro.core` perform all their math through
these helpers so the functional simulation is *bit-accurate*: a MAC is
an exact integer multiply-accumulate in a wide accumulator, and only
explicit :func:`repro.fixedpoint.quantize.requantize` steps lose
precision — exactly like the synthesized RTL.

A :class:`FxTensor` bundles raw integer codes with their
:class:`~repro.fixedpoint.qformat.QFormat`, preventing the classic bug
of mixing scales silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._checks import is_count
from .qformat import ACC32, QFormat
from .quantize import Rounding, dequantize, quantize, requantize, saturate

__all__ = ["FxTensor", "fx_matmul", "fx_add", "fx_mul", "fx_scale_shift"]


@dataclass
class FxTensor:
    """Raw integer codes plus their fixed-point format.

    Attributes
    ----------
    raw:
        ``int64`` NumPy array of codes.
    fmt:
        The :class:`QFormat` giving meaning to the codes.
    """

    raw: np.ndarray
    fmt: QFormat

    def __post_init__(self) -> None:
        self.raw = np.asarray(self.raw, dtype=np.int64)
        lo, hi = self.fmt.int_min, self.fmt.int_max
        if self.raw.size and (self.raw.min() < lo or self.raw.max() > hi):
            raise ValueError(
                f"raw codes out of range for {self.fmt}: "
                f"[{self.raw.min()}, {self.raw.max()}] vs [{lo}, {hi}]"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_float(
        cls,
        values: np.ndarray,
        fmt: QFormat,
        rounding: Rounding = Rounding.NEAREST_EVEN,
    ) -> "FxTensor":
        """Quantize a float tensor into ``fmt``."""
        return cls(quantize(values, fmt, rounding), fmt)

    def to_float(self) -> np.ndarray:
        """Dequantize back to float64."""
        return dequantize(self.raw, self.fmt)

    @property
    def shape(self):
        return self.raw.shape

    def astype(self, fmt: QFormat, rounding: Rounding = Rounding.NEAREST_EVEN) -> "FxTensor":
        """Requantize into another format (shift + saturate)."""
        return FxTensor(requantize(self.raw, self.fmt, fmt, rounding), fmt)

    def __getitem__(self, idx) -> "FxTensor":
        return FxTensor(self.raw[idx], self.fmt)


def _check_formats(a: FxTensor, b: FxTensor) -> None:
    if a.fmt.signed != b.fmt.signed:
        raise ValueError("mixing signed and unsigned operands is not supported")


def fx_matmul(
    a: FxTensor,
    b: FxTensor,
    acc_fmt: Optional[QFormat] = None,
) -> FxTensor:
    """Exact integer matrix multiply: ``a @ b`` in a wide accumulator.

    ``acc_fmt`` defaults to the exact accumulator format for the inner
    dimension (never overflows).  The result keeps full precision; the
    caller requantizes when writing the narrow inter-engine buffer,
    matching where the hardware truncates.
    """
    _check_formats(a, b)
    k = a.raw.shape[-1]
    if b.raw.shape[0] != k:
        raise ValueError(f"inner dimensions differ: {a.raw.shape} @ {b.raw.shape}")
    exact = a.fmt.accumulator_format(b.fmt, max(k, 1))
    out_fmt = acc_fmt if acc_fmt is not None else exact
    raw = a.raw @ b.raw  # int64 exact for all supported widths
    if out_fmt is not exact:
        raw = requantize(raw, exact, out_fmt)
    else:
        raw = saturate(raw, out_fmt)
    return FxTensor(raw, out_fmt)


def fx_add(a: FxTensor, b: FxTensor, out_fmt: Optional[QFormat] = None) -> FxTensor:
    """Saturating fixed-point addition with automatic alignment.

    Operands are aligned to the finer fractional precision, summed
    exactly, and saturated into ``out_fmt`` (default: one guard bit over
    the aligned operand width) — the residual-connection adder.
    """
    _check_formats(a, b)
    frac = max(a.fmt.frac_bits, b.fmt.frac_bits)
    bits = max(
        a.fmt.total_bits + (frac - a.fmt.frac_bits),
        b.fmt.total_bits + (frac - b.fmt.frac_bits),
    ) + 1
    wide = QFormat(bits, frac, a.fmt.signed)
    ra = requantize(a.raw, a.fmt, wide)
    rb = requantize(b.raw, b.fmt, wide)
    summed = ra + rb
    target = out_fmt if out_fmt is not None else wide
    if target is not wide:
        summed = requantize(summed, wide, target)
    else:
        summed = saturate(summed, wide)
    return FxTensor(summed, target)


def fx_mul(a: FxTensor, b: FxTensor, out_fmt: Optional[QFormat] = None) -> FxTensor:
    """Element-wise fixed-point multiply (broadcasting allowed)."""
    _check_formats(a, b)
    exact = a.fmt.product_format(b.fmt)
    raw = a.raw * b.raw
    target = out_fmt if out_fmt is not None else exact
    if target is not exact:
        raw = requantize(raw, exact, target)
    else:
        raw = saturate(raw, exact)
    return FxTensor(raw, target)


def fx_scale_shift(
    x: FxTensor,
    multiplier: int,
    shift: int,
    out_fmt: QFormat = ACC32,
) -> FxTensor:
    """Multiply by an integer constant then arithmetic-shift right.

    The canonical "fixed-point rescale" a hardware unit uses where a
    real-valued constant ``c`` is folded into ``multiplier / 2**shift``.
    """
    if not is_count(shift, 0):
        raise ValueError("shift must be non-negative")
    raw = x.raw * np.int64(multiplier)
    if shift:
        raw = raw >> np.int64(shift)
    return FxTensor(saturate(raw, out_fmt), out_fmt)
