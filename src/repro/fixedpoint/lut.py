"""Look-up-table function units (exp, reciprocal, rsqrt, erf).

The paper implements softmax "in HLS, utiliz[ing] LUTs and flip-flops"
— i.e. the non-linear functions are table lookups, not iterative
floating-point routines.  We model each unit as a sampled table over a
bounded input interval with nearest-entry lookup (optionally linear
interpolation, which costs one extra DSP in the resource model).

All evaluation is vectorized: a lookup over a whole score matrix is a
single fancy-indexing operation.

A table is filled the first time a lookup (or ``max_error``) needs it,
not when the unit is built: synthesizing an accelerator validates its
tables' geometry and prices them in the resource model, but never
evaluates a tabulated function.  ``ErfLUT`` therefore imports
``scipy.special`` only when its table is first read, so synthesis,
serving, generation, DSE and the paper tables run without scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "FunctionLUT",
    "ExpLUT",
    "ReciprocalLUT",
    "RsqrtLUT",
    "ErfLUT",
]


@dataclass
class FunctionLUT:
    """A sampled scalar function on ``[lo, hi]`` with ``entries`` codes.

    Parameters
    ----------
    fn:
        The real function being tabulated.
    lo, hi:
        Input interval; inputs outside are clamped (hardware saturates
        the table index).
    entries:
        Table depth — a power of two so the index is a bit-slice.
    interpolate:
        When ``True``, linearly interpolate between adjacent entries
        (one multiplier per lookup); otherwise nearest-entry.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    lo: float
    hi: float
    entries: int = 256
    interpolate: bool = False
    name: str = "lut"
    _table: Optional[np.ndarray] = field(init=False, repr=False, compare=False,
                                         default=None)

    def __post_init__(self) -> None:
        if self.entries < 2 or (self.entries & (self.entries - 1)) != 0:
            raise ValueError("entries must be a power of two >= 2")
        if not self.hi > self.lo:
            raise ValueError("need hi > lo")

    @property
    def table(self) -> np.ndarray:
        """The ``entries`` sampled values, computed on first access."""
        if self._table is None:
            xs = np.linspace(self.lo, self.hi, self.entries)
            self._table = np.asarray(self.fn(xs), dtype=np.float64)
        return self._table

    @property
    def step(self) -> float:
        """Input distance between adjacent table entries."""
        return (self.hi - self.lo) / (self.entries - 1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the table at ``x`` (vectorized, clamped)."""
        x = np.asarray(x, dtype=np.float64)
        table = self.table
        pos = (np.clip(x, self.lo, self.hi) - self.lo) / self.step
        if self.interpolate:
            idx = np.clip(np.floor(pos).astype(np.int64), 0, self.entries - 2)
            frac = pos - idx
            lo = table[idx]
            hi = table[idx + 1]
            return lo + frac * (hi - lo)
        idx = np.clip(np.rint(pos).astype(np.int64), 0, self.entries - 1)
        return table[idx]

    def max_error(self, samples: int = 4096) -> float:
        """Worst-case absolute error against the real function."""
        xs = np.linspace(self.lo, self.hi, samples)
        return float(np.max(np.abs(self(xs) - self.fn(xs))))


def _reciprocal(x: np.ndarray) -> np.ndarray:
    return 1.0 / x


def _rsqrt(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.sqrt(x)


def _erf(x: np.ndarray) -> np.ndarray:
    # Imported on the first table fill, so building an ErfLUT (and so
    # synthesizing an accelerator) never loads scipy.
    from scipy.special import erf

    return erf(x)


class ExpLUT(FunctionLUT):
    """``exp(x)`` on ``[lo, 0]`` — softmax uses max-subtracted inputs.

    Softmax first subtracts the row maximum, so every table input is
    non-positive; below ``lo`` the true value is ~0 and the clamp is
    harmless (``exp(-12) < 7e-6``, under half an 8-bit LSB).
    """

    def __init__(self, lo: float = -12.0, entries: int = 512, interpolate: bool = False):
        super().__init__(fn=np.exp, lo=lo, hi=0.0, entries=entries,
                         interpolate=interpolate, name="exp")


class ReciprocalLUT(FunctionLUT):
    """``1/x`` on ``[lo, hi]`` with ``lo > 0`` — softmax denominator."""

    def __init__(self, lo: float = 0.5, hi: float = 512.0, entries: int = 1024,
                 interpolate: bool = True):
        if lo <= 0:
            raise ValueError("reciprocal LUT needs lo > 0")
        super().__init__(fn=_reciprocal, lo=lo, hi=hi, entries=entries,
                         interpolate=interpolate, name="recip")


class RsqrtLUT(FunctionLUT):
    """``1/sqrt(x)`` on ``[lo, hi]`` — layer-norm variance normalizer."""

    def __init__(self, lo: float = 1e-3, hi: float = 64.0, entries: int = 1024,
                 interpolate: bool = True):
        if lo <= 0:
            raise ValueError("rsqrt LUT needs lo > 0")
        super().__init__(fn=_rsqrt, lo=lo, hi=hi, entries=entries,
                         interpolate=interpolate, name="rsqrt")


class ErfLUT(FunctionLUT):
    """``erf(x)`` on a symmetric interval — GELU's non-linearity."""

    def __init__(self, half_range: float = 4.0, entries: int = 512,
                 interpolate: bool = True):
        super().__init__(fn=_erf, lo=-half_range, hi=half_range, entries=entries,
                         interpolate=interpolate, name="erf")


