"""Config-register file and the runtime-programmability contract.

The central claim of ProTEA: hyper-parameters "can be programmed during
runtime up to a maximum value" without resynthesis; tile sizes "must be
set before synthesis".  :class:`SynthParams` is what the bitstream
froze; :class:`ConfigRegisterFile` is what the MicroBlaze may change,
validated against those maxima.  Violations raise
:class:`ResynthesisRequiredError` — the software-visible equivalent of
"you need a new bitstream".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from .._checks import check_count, is_count
from ..memory.axi import AXILiteSlave
from ..nn.model_zoo import TransformerConfig

__all__ = [
    "ResynthesisRequiredError",
    "SynthParams",
    "ConfigRegisterFile",
    "REGISTER_MAP",
]


class ResynthesisRequiredError(RuntimeError):
    """A requested runtime parameter exceeds the synthesized maxima (or
    asks to change a synthesis-time constant such as a tile size)."""


@dataclass(frozen=True)
class SynthParams:
    """Synthesis-time constants of one ProTEA bitstream.

    ``ts_mha``/``ts_ffn`` are the tile sizes (Section IV-E: fixed at 64
    and 128 for the evaluation); ``max_*`` are the ceilings the buffers
    and loop bounds were generated for.
    """

    ts_mha: int = 64
    ts_ffn: int = 128
    max_heads: int = 8
    max_layers: int = 12
    max_d_model: int = 768
    max_seq_len: int = 128
    #: Attention sequence chunk: the SV engine's unrolled key width and
    #: the score-buffer height.  Runtime sequences longer than this are
    #: processed in chunks (which is why Table I's SL=128 test scales
    #: slightly super-linearly).
    seq_chunk: int = 64
    data_bits: int = 8

    def __post_init__(self) -> None:
        if not (is_count(self.ts_mha) and is_count(self.ts_ffn)):
            raise ValueError("tile sizes must be positive")
        for name in ("max_heads", "max_layers", "max_d_model",
                     "max_seq_len", "data_bits"):
            check_count(name, getattr(self, name))
        if not is_count(self.seq_chunk) or self.seq_chunk > self.max_seq_len:
            raise ValueError("seq_chunk must be in [1, max_seq_len]")
        if self.max_d_model % self.max_heads:
            raise ValueError("max_d_model must be divisible by max_heads")

    @property
    def tiles_mha_max(self) -> int:
        """MHA tile-iteration count at the synthesized maximum d_model
        (ragged final tiles allowed — hence the ceiling)."""
        return -(-self.max_d_model // self.ts_mha)

    @property
    def tiles_ffn_max(self) -> int:
        """FFN output-dim tile grid at the synthesized maximum."""
        return -(-self.max_d_model // self.ts_ffn)

    def with_tiles(self, tiles_mha: int, tiles_ffn: int) -> "SynthParams":
        """These parameters with the tile sizes that split ``max_d_model``
        into ``tiles_mha`` MHA and ``tiles_ffn`` FFN tiles (Fig. 7's
        axes; the last tile may be ragged)."""
        return replace(self,
                       ts_mha=max(1, math.ceil(self.max_d_model / tiles_mha)),
                       ts_ffn=max(1, math.ceil(self.max_d_model / tiles_ffn)))


#: AXI-Lite register map (byte offsets) for the four runtime parameters
#: plus control/status.
REGISTER_MAP: Dict[str, int] = {
    "ctrl": 0x00,
    "status": 0x04,
    "num_heads": 0x10,
    "num_layers": 0x14,
    "d_model": 0x18,
    "seq_len": 0x1C,
}


@dataclass
class ConfigRegisterFile:
    """Runtime-programmable CSRs with synthesis-ceiling validation."""

    synth: SynthParams
    num_heads: int = 0
    num_layers: int = 0
    d_model: int = 0
    seq_len: int = 0
    axi: AXILiteSlave = AXILiteSlave()
    programming_cycles: int = 0

    # ------------------------------------------------------------------
    def write(self, register: str, value: int) -> None:
        """One AXI-Lite CSR write with validation against the maxima."""
        if register not in REGISTER_MAP:
            raise KeyError(f"unknown register {register!r}")
        if register in ("ctrl", "status"):
            raise ValueError(f"{register} is not a parameter register")
        check_count(register, value)
        limit = {
            "num_heads": self.synth.max_heads,
            "num_layers": self.synth.max_layers,
            "d_model": self.synth.max_d_model,
            "seq_len": self.synth.max_seq_len,
        }[register]
        if value > limit:
            raise ResynthesisRequiredError(
                f"{register}={value} exceeds synthesized maximum {limit}; "
                f"a new bitstream (re-synthesis) would be required"
            )
        setattr(self, register, value)
        self.programming_cycles += self.axi.write_cycles

    def program(self, config: TransformerConfig) -> None:
        """Program a full workload (the MicroBlaze boot sequence).

        Also validates the structural constraint the synthesized FFN
        datapath hard-codes (the 4x expansion ratio).
        """
        if config.d_ff != 4 * config.d_model:
            raise ResynthesisRequiredError(
                "the synthesized FFN datapath hard-codes d_ff = 4*d_model"
            )
        self.write("num_heads", config.num_heads)
        self.write("num_layers", config.num_layers)
        self.write("d_model", config.d_model)
        self.write("seq_len", config.seq_len)

    # ------------------------------------------------------------------
    @property
    def d_k(self) -> int:
        """Per-head dimension under the current configuration."""
        if not (self.num_heads and self.d_model):
            raise RuntimeError("register file not programmed yet")
        return self.d_model // self.num_heads

    @property
    def tiles_mha(self) -> int:
        """Runtime MHA tile-iteration count ``ceil(d_model / TS_MHA)``."""
        return -(-self.d_model // self.synth.ts_mha)

    @property
    def tiles_ffn(self) -> int:
        """Runtime FFN reduction-dim tile count ``ceil(d_model/TS_FFN)``
        (small d_model still occupies one tile)."""
        return -(-self.d_model // self.synth.ts_ffn)

    def snapshot(self) -> Dict[str, int]:
        """Current register values (for traces and reports)."""
        return {
            "num_heads": self.num_heads,
            "num_layers": self.num_layers,
            "d_model": self.d_model,
            "seq_len": self.seq_len,
        }
