"""Fixed-point tensors: raw integer codes tagged with their format.

A :class:`FxTensor` bundles raw integer codes with their
:class:`~repro.fixedpoint.qformat.QFormat`, preventing the classic bug
of mixing scales silently.  The compute engines in :mod:`repro.core`
do their integer math on the raw codes themselves (exact
multiply-accumulates in ``int64``, as in
:func:`repro.core.engines.tiled_fx_matmul_reduction`), and only
explicit :func:`repro.fixedpoint.quantize.requantize` and
:func:`~repro.fixedpoint.quantize.saturate` steps lose precision —
exactly like the synthesized RTL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qformat import QFormat
from .quantize import Rounding, dequantize, quantize, requantize

__all__ = ["FxTensor"]


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


