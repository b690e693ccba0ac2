"""Achievable-clock (Fmax) model.

ProTEA's tile sizes trade iteration count against datapath width, and
Fig. 7 shows the consequence: both very wide unrolls (few, large tiles)
and very fragmented designs (many small tiles) lower the achievable
frequency; 12 MHA tiles x 6 FFN tiles peaks at 200 MHz.

The model: each engine's critical path is a base pipeline-stage delay
plus congestion terms that grow once the design leaves that engine
class's routing sweet spot —

``delay_ns = T_BASE
           + A·max(0, log2(width / width_ref))²
           + B·max(0, log2(iters / iters_ref))²
           + irregular·T_IRR + unaligned·T_ALIGN``

* ``width``: the unrolled operand fan-in (adder tree + operand-mux
  width; routing a 384-wide 8-bit reduction stresses one SLR).
* ``iters``: the tile-iteration count (tile-offset muxing, bank-select
  fanout and control replication grow with the number of tiles).
* ``width_ref`` / ``iters_ref``: the engine class's sweet spot — set by
  each module to the published optimum (TS_MHA=64 / 12 tiles for the
  attention engines, TS_FFN=128 / 6 tiles for the FFN engines).  These
  encode the calibration against Fig. 7; they are properties of the
  U55C fabric + Vitis, not of individual experiments.
* ``irregular``: the tile size does not divide the synthesized
  ``d_model`` (ragged banks, non-uniform partition muxing).
* ``unaligned``: the tile size is neither a power of two nor 64-aligned
  (address generation needs real multipliers/modulos).

The full-design Fmax is the minimum over engines (the slowest module
closes timing last), clipped to the platform's practical ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable

__all__ = ["TimingModel", "EnginePath", "DEFAULT_TIMING"]


@dataclass(frozen=True)
class EnginePath:
    """Critical-path description of one engine."""

    name: str
    width: int             # unrolled fan-in (PEs reduced per output)
    iters: int             # tile-iteration count steered by control
    width_ref: int = 64    # routing sweet spot of this engine class
    iters_ref: int = 12
    irregular: bool = False
    unaligned: bool = False

    def __post_init__(self) -> None:
        if min(self.width, self.iters, self.width_ref, self.iters_ref) < 1:
            raise ValueError(f"{self.name}: widths/iters must be >= 1")


@dataclass(frozen=True)
class TimingModel:
    """Calibrated Fmax model (see module docstring).

    ``ceiling_mhz`` models the platform/shell kernel-clock ceiling —
    the U55C shell tops out near 300 MHz for HLS kernels; the paper's
    design closes at 200 MHz.
    """

    t_base_ns: float = 5.0
    a_width: float = 4.3
    b_iters: float = 1.0
    t_irregular_ns: float = 1.2
    t_unaligned_ns: float = 0.4
    ceiling_mhz: float = 300.0

    def path_delay_ns(self, path: EnginePath) -> float:
        """Critical-path delay of one engine in nanoseconds."""
        dw = max(0.0, math.log2(path.width / path.width_ref))
        di = max(0.0, math.log2(path.iters / path.iters_ref))
        delay = self.t_base_ns + self.a_width * dw * dw + self.b_iters * di * di
        if path.irregular:
            delay += self.t_irregular_ns
        if path.unaligned:
            delay += self.t_unaligned_ns
        return delay

    def fmax_mhz(self, paths: Iterable[EnginePath]) -> float:
        """Design Fmax: slowest engine decides, capped at the ceiling."""
        worst = max(self.path_delay_ns(p) for p in paths)
        return min(1000.0 / worst, self.ceiling_mhz)


def tile_regularity(d_model: int, tile: int) -> Dict[str, bool]:
    """Irregularity flags for a tile size against the synthesized
    ``d_model`` (helper for the modules' timing paths)."""
    power_of_two = tile >= 1 and (tile & (tile - 1)) == 0
    return {
        "irregular": d_model % tile != 0,
        "unaligned": not power_of_two and tile % 64 != 0,
    }


#: Calibration used throughout the reproduction (fitted to Fig. 7:
#: 12 MHA tiles / 6 FFN tiles → 200 MHz peak; extremes fall into the
#: figure's 60–110 MHz band).
DEFAULT_TIMING = TimingModel()
