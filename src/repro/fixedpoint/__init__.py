"""Bit-accurate fixed-point arithmetic substrate for the ProTEA datapath.

Public surface:

* :class:`~repro.fixedpoint.qformat.QFormat` — format descriptors.
* :func:`~repro.fixedpoint.quantize.quantize` /
  :func:`~repro.fixedpoint.quantize.dequantize` /
  :func:`~repro.fixedpoint.quantize.requantize` — format conversions.
* :class:`~repro.fixedpoint.arithmetic.FxTensor` — raw integer codes
  with their format, the values the engines' tiled integer matmuls
  (:mod:`repro.core.engines`) take and return.
* LUT function units (:class:`~repro.fixedpoint.lut.ExpLUT`, …) used by
  the softmax and layer-norm hardware units.
"""

from .arithmetic import FxTensor
from .lut import ErfLUT, ExpLUT, FunctionLUT, ReciprocalLUT, RsqrtLUT
from .qformat import QFormat
from .quantize import (
    Rounding,
    calibrate_format,
    dequantize,
    quantize,
    requantize,
    saturate,
)

__all__ = [
    "QFormat",
    "Rounding",
    "quantize",
    "dequantize",
    "requantize",
    "saturate",
    "calibrate_format",
    "FxTensor",
    "FunctionLUT",
    "ExpLUT",
    "ReciprocalLUT",
    "RsqrtLUT",
    "ErfLUT",
]
